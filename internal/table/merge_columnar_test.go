package table

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"tierdb/internal/amm"
	"tierdb/internal/dict"
	"tierdb/internal/keyenc"
	"tierdb/internal/mvcc"
	"tierdb/internal/schema"
	"tierdb/internal/sscg"
	"tierdb/internal/storage"
	"tierdb/internal/value"
)

// TestColumnarMainMatchesRowPath builds every main of a seeded history
// twice — by the merge (rebuild, column by column) and by the row path
// (buildMainRows over the tuples visible at the merge's snapshot) — and
// requires them to be the same partition: dictionaries, packed vectors,
// histograms, distinct counts, index contents, SSCG row bytes and the
// begin of every row. The histories cover int, float and string columns
// (strings longer than their slot), deletes in the main and in the
// frozen delta, an empty old main (a bulk load), an empty delta, every
// row deleted, every MRC↔SSCG move, single-column indexes on MRC and
// SSCG columns and composite indexes.
func TestColumnarMainMatchesRowPath(t *testing.T) {
	for c := 0; c < 240; c++ {
		t.Run(fmt.Sprintf("case%03d", c), func(t *testing.T) {
			runColumnarCase(t, rand.New(rand.NewSource(int64(c)*104729+3)))
		})
	}
}

func runColumnarCase(t *testing.T, rng *rand.Rand) {
	n := 1 + rng.Intn(5)
	fields := make([]schema.Field, n)
	for c := range fields {
		fields[c] = schema.Field{Name: fmt.Sprintf("c%d", c), Type: value.Type(rng.Intn(3))}
		if fields[c].Type == value.String {
			fields[c].Width = 2 + rng.Intn(6)
		}
	}
	s := schema.MustNew(fields)
	opts := Options{}
	if rng.Intn(2) == 0 { // reads through a small cache
		store := storage.NewMemStore()
		cache, err := amm.New(4, store)
		if err != nil {
			t.Fatal(err)
		}
		opts = Options{Store: store, Cache: cache}
	}
	tbl, err := New("cases", s, opts)
	if err != nil {
		t.Fatal(err)
	}
	cell := func(c int) value.Value {
		switch s.Field(c).Type {
		case value.Int64:
			return value.NewInt(int64(rng.Intn(1 + rng.Intn(200))))
		case value.Float64:
			return value.NewFloat(float64(rng.Intn(400)-200) / 8)
		}
		b := make([]byte, rng.Intn(s.Field(c).Width+4)) // may overflow the slot
		for i := range b {
			b[i] = "abcz"[rng.Intn(4)]
		}
		return value.NewString(string(b))
	}
	tuples := func(k int) [][]value.Value {
		rows := make([][]value.Value, k)
		for r := range rows {
			rows[r] = make([]value.Value, n)
			for c := range rows[r] {
				rows[r][c] = cell(c)
			}
		}
		return rows
	}
	layout := func() []bool {
		l := make([]bool, n)
		for c := range l {
			l[c] = rng.Intn(2) == 0
		}
		return l
	}
	deleteSome := func(from, to int, p float64) {
		tx := tbl.Manager().Begin()
		for id := from; id < to; id++ {
			if rng.Float64() < p {
				if err := tbl.Delete(tx, RowID(id)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err := tbl.Manager().Commit(tx); err != nil {
			t.Fatal(err)
		}
	}
	deleteP := func() float64 { return []float64{0, 0.1, 0.5, 1}[rng.Intn(4)] }

	// A bulk load: the old main is the new table's empty one.
	if err := tbl.BulkAppend(tuples(rng.Intn(300))); err != nil {
		t.Fatal(err)
	}
	mergeBothWays(t, tbl, layout())

	// Indexes on one or two columns, MRC or SSCG, and maybe a composite.
	for i := 0; i < 1+rng.Intn(2); i++ {
		if err := tbl.CreateIndex(rng.Intn(n)); err != nil {
			t.Fatal(err)
		}
	}
	if n > 1 && rng.Intn(2) == 0 {
		a, b := rng.Intn(n), rng.Intn(n-1)
		if b >= a {
			b++
		}
		if err := tbl.CreateCompositeIndex([]int{a, b}); err != nil {
			t.Fatal(err)
		}
	}

	// Two more merges under drawn layouts: deletes in the main, a delta
	// (maybe empty) with deletes of its own.
	for round := 0; round < 2; round++ {
		deleteSome(0, tbl.MainRows(), deleteP())
		tx := tbl.Manager().Begin()
		for _, r := range tuples(rng.Intn(3) * rng.Intn(60)) {
			if err := tbl.Insert(tx, r); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := tbl.Manager().Commit(tx); err != nil {
			t.Fatal(err)
		}
		deleteSome(tbl.MainRows(), tbl.MainRows()+deltaRows(tbl), deleteP())
		mergeBothWays(t, tbl, layout())
	}
}

// mergeBothWays runs one online merge of tbl under layout, and before
// its swap requires the rebuilt main to equal the row path's main over
// the same snapshot.
func mergeBothWays(t *testing.T, tbl *Table, layout []bool) {
	t.Helper()
	st, err := tbl.freezeForMerge(layout)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tbl.rebuild(st)
	if err != nil {
		t.Fatal(err)
	}
	want := rowPathMain(t, tbl, st)
	requireSameMain(t, b.next, want)
	want.epoch.release()
	if err := tbl.swapMain(st, b); err != nil {
		t.Fatal(err)
	}
}

// rowPathMain builds, through the row path, the main of the rows of
// st's old main and frozen delta visible at st's snapshot, with their
// begins and the old main's indexes.
func rowPathMain(t *testing.T, tbl *Table, st *mergeState) *main {
	t.Helper()
	var rows [][]value.Value
	var begins []mvcc.Timestamp
	for _, pos := range st.old.versions.VisibleIn(0, st.old.rows, st.snapshot, 0, nil) {
		tuple, err := st.old.tuple(int(pos))
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, tuple)
		begins = append(begins, st.old.versions.State(int(pos)).Begin)
	}
	for _, pos := range st.frozen.VisibleRows(st.snapshot, 0) {
		tuple, err := st.frozen.GetRow(int(pos))
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, tuple)
		begins = append(begins, st.frozen.Versions().State(int(pos)).Begin)
	}
	m, err := tbl.buildMainRows(st.layout, rows)
	if err != nil {
		t.Fatal(err)
	}
	for _, begin := range begins {
		m.versions.AppendAt(begin, mvcc.Infinity)
	}
	if err := m.addIndexesRowPath(st.old, rows); err != nil {
		t.Fatal(err)
	}
	return m
}

func requireSameMain(t *testing.T, got, want *main) {
	t.Helper()
	if got.rows != want.rows || !slices.Equal(got.layout, want.layout) || !slices.Equal(got.groupIdx, want.groupIdx) {
		t.Fatalf("shape: %d rows, layout %v, groupIdx %v; want %d, %v, %v",
			got.rows, got.layout, got.groupIdx, want.rows, want.layout, want.groupIdx)
	}
	for col := range want.mrcs {
		if !reflect.DeepEqual(got.hists[col], want.hists[col]) {
			t.Errorf("column %d histogram %+v, want %+v", col, got.hists[col], want.hists[col])
		}
		// An MRC is its name, type, dictionary and packed codes.
		if !reflect.DeepEqual(got.mrcs[col], want.mrcs[col]) {
			t.Errorf("column %d MRC %+v, want %+v", col, got.mrcs[col], want.mrcs[col])
		}
	}
	if g, w := groupBytes(t, got.group, got.rows), groupBytes(t, want.group, want.rows); !slices.Equal(g, w) {
		t.Errorf("SSCG bytes differ (%d vs %d)", len(g), len(w))
	}
	if (got.group == nil) != (want.group == nil) || got.group != nil && got.group.PageCount() != want.group.PageCount() {
		t.Errorf("SSCG pages differ")
	}
	gb, ge := got.versions.Stamps()
	wb, we := want.versions.Stamps()
	if !slices.Equal(gb, wb) || !slices.Equal(ge, we) {
		t.Errorf("versions: begins %v ends %v, want %v %v", gb, ge, wb, we)
	}
	if len(got.indexes) != len(want.indexes) || len(got.composites) != len(want.composites) {
		t.Fatalf("%d+%d indexes, want %d+%d", len(got.indexes), len(got.composites), len(want.indexes), len(want.composites))
	}
	for col, w := range want.indexes {
		requireSameIndex(t, fmt.Sprintf("index on %d", col), want, []int{col}, got.indexes[col], w)
	}
	for name, w := range want.composites {
		requireSameIndex(t, "composite "+name, want, w.cols, got.composites[name].index, w.index)
	}
}

// groupBytes reads the rows of g, a main of n rows, back as bytes.
func groupBytes(t *testing.T, g *sscg.Group, n int) []byte {
	t.Helper()
	if g == nil {
		return nil
	}
	var out []byte
	err := g.ReadRows(0, n, func(_ int, slots [][]byte) error {
		for _, s := range slots {
			out = append(out, s...)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// requireSameIndex compares two indexes over cols of the main m through
// their lookups: for every key of m's rows, got's Eq and one-key Between
// return want's positions, and a Between over all keys returns want's.
func requireSameIndex(t *testing.T, what string, m *main, cols []int, got, want *dict.Index) {
	t.Helper()
	if got == nil {
		t.Fatalf("%s: missing", what)
	}
	keys := indexKeys(t, m, cols)
	for c := range keys.Size() {
		k := keys.At(c)
		w := want.Eq(k)
		if g := got.Eq(k); !slices.Equal(g, w) {
			t.Fatalf("%s: Eq(%v) = %v, want %v", what, k, g, w)
		}
		if g := got.Between(k, k); !slices.Equal(g, w) {
			t.Fatalf("%s: Between(%v, %v) = %v, want %v", what, k, k, g, w)
		}
	}
	if n := keys.Size(); n > 0 {
		lo, hi := keys.At(0), keys.At(n-1)
		if g, w := got.Between(lo, hi), want.Between(lo, hi); !slices.Equal(g, w) {
			t.Fatalf("%s: Between(%v, %v) = %v, want %v", what, lo, hi, g, w)
		}
	}
}

// indexKeys returns the distinct keys of m's rows for an index over
// cols, in order: one column's values, or the encodings of the tuples.
func indexKeys(t *testing.T, m *main, cols []int) *dict.Dictionary {
	t.Helper()
	typ := m.schema.Field(cols[0]).Type
	if len(cols) > 1 {
		typ = value.String
	}
	vals, key := make([]value.Value, m.rows), make([]value.Value, len(cols))
	for row := range vals {
		for i, c := range cols {
			v, err := m.value(row, c)
			if err != nil {
				t.Fatal(err)
			}
			key[i] = v
		}
		vals[row] = key[0]
		if len(cols) > 1 {
			k, err := keyenc.EncodeString(key)
			if err != nil {
				t.Fatal(err)
			}
			vals[row] = value.NewString(k)
		}
	}
	d, _, err := dict.Build(typ, vals)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestMergeAllocsIndependentOfRows pins what one merge allocates to
// O(columns + pages): a merge of a 40 k-row main allocates at most what
// one of a 10 k-row main does, plus one per extra SSCG page, plus a few
// for slices that grow by doubling. The table holds every kind of column
// the merge treats differently: an indexed MRC, an indexed SSCG column,
// and SSCG float and string columns known only to their histograms.
func TestMergeAllocsIndependentOfRows(t *testing.T) {
	s := schema.MustNew([]schema.Field{
		{Name: "id", Type: value.Int64},
		{Name: "grp", Type: value.Int64},
		{Name: "amount", Type: value.Float64},
		{Name: "note", Type: value.String, Width: 10},
	})
	merge := func(rows int) (allocs float64, pages int) {
		tbl, err := New("allocs", s, Options{})
		if err != nil {
			t.Fatal(err)
		}
		data := make([][]value.Value, rows)
		for i := range data {
			data[i] = []value.Value{value.NewInt(int64(i)), value.NewInt(int64(i % 97)),
				value.NewFloat(float64(i%5000) / 4), value.NewString(fmt.Sprintf("n%07d", i))}
		}
		if err := tbl.BulkAppend(data); err != nil {
			t.Fatal(err)
		}
		if err := tbl.ApplyLayout([]bool{true, false, false, false}); err != nil {
			t.Fatal(err)
		}
		for _, col := range []int{0, 1} {
			if err := tbl.CreateIndex(col); err != nil {
				t.Fatal(err)
			}
		}
		allocs = testing.AllocsPerRun(3, func() {
			if err := tbl.Merge(); err != nil {
				t.Fatal(err)
			}
		})
		withView(tbl, func(v *View) { pages = v.Group().PageCount() })
		return allocs, pages
	}
	small, smallPages := merge(10_000)
	large, largePages := merge(40_000)
	t.Logf("10k rows: %.0f allocs, %d pages; 40k rows: %.0f allocs, %d pages", small, smallPages, large, largePages)
	if limit := small + float64(largePages-smallPages) + 32; large > limit {
		t.Errorf("a 40k-row merge allocates %.0f times, want <= %.0f (10k rows: %.0f)", large, limit, small)
	}
}
