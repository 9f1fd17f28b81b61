package persist

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"tierdb/internal/exec"
	"tierdb/internal/histogram"
	"tierdb/internal/mvcc"
	"tierdb/internal/schema"
	"tierdb/internal/storage"
	"tierdb/internal/table"
	"tierdb/internal/value"
)

// gateStore parks the first page allocation after arm until resume is
// closed: a merge parked there is between freeze and swap, with its
// frozen delta in every view.
type gateStore struct {
	storage.Store
	armed   atomic.Bool
	entered chan struct{}
	resume  chan struct{}
}

func (g *gateStore) Allocate() (storage.PageID, error) {
	if g.armed.CompareAndSwap(true, false) {
		close(g.entered)
		<-g.resume
	}
	return g.Store.Allocate()
}

// roundTripCase is one table saved at a snapshot, with the rows a
// reader at the snapshot sees kept by a model independent of the
// engine.
type roundTripCase struct {
	tbl      *table.Table
	snapshot mvcc.Timestamp
	image    []byte
	saved    *table.View     // pinned at the save; the caller releases it
	want     [][]value.Value // the model's rows visible at the snapshot
	probes   [][]value.Value // every row ever inserted, for predicate operands
}

// caseValue draws a value of f's type from a small domain with the
// edge cases in it: the extreme ints, NaN, ±0, ±Inf and "".
func caseValue(r *rand.Rand, f schema.Field) value.Value {
	switch f.Type {
	case value.Int64:
		edges := []int64{math.MinInt64, math.MaxInt64, 0, -1}
		if r.Intn(4) == 0 {
			return value.NewInt(edges[r.Intn(len(edges))])
		}
		return value.NewInt(int64(r.Intn(40)))
	case value.Float64:
		edges := []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1)}
		if r.Intn(4) == 0 {
			return value.NewFloat(edges[r.Intn(len(edges))])
		}
		return value.NewFloat(float64(r.Intn(40)) / 4)
	}
	if r.Intn(5) == 0 {
		return value.NewString("")
	}
	s := fmt.Sprintf("%c%d", 'a'+r.Intn(6), r.Intn(30))
	return value.NewString(s[:min(len(s), f.Width)])
}

// rowKey is a row as a comparable key, its values equal as
// value.Compare says: every NaN alike, and -0 as +0 — a dictionary keeps
// one of the two.
func rowKey(row []value.Value) string {
	var b strings.Builder
	for _, v := range row {
		switch f := v.Float(); {
		case v.Type() == value.Int64:
			fmt.Fprintf(&b, "i%d|", v.Int())
		case v.Type() == value.String:
			fmt.Fprintf(&b, "s%q|", v.Str())
		case f != f:
			b.WriteString("fNaN|")
		default:
			fmt.Fprintf(&b, "f%v|", f+0)
		}
	}
	return b.String()
}

// keys returns the rows' keys, sorted.
func keys(rows [][]value.Value) []string {
	out := make([]string, len(rows))
	for i, row := range rows {
		out[i] = rowKey(row)
	}
	slices.Sort(out)
	return out
}

// buildRoundTripCase builds the table of one seed and saves it. The seed
// picks the schema (Int64, Float64 and String columns), the layout
// (all-MRC, all-SSCG or mixed), the row count (sometimes none), the
// indexes (single-column and composite), deletes before and after the
// snapshot, and one of four schedules: a plain checkpoint; a merge that
// swaps between the quiesce and the pin; a save while a merge is parked
// between freeze and swap, its delta frozen; a merge, then deletes, then
// the checkpoint.
func buildRoundTripCase(tb testing.TB, seed int64) *roundTripCase {
	tb.Helper()
	r := rand.New(rand.NewSource(seed))
	fields := make([]schema.Field, 1+r.Intn(4))
	for i := range fields {
		fields[i] = schema.Field{Name: fmt.Sprintf("c%d", i), Type: value.Type(r.Intn(3))}
		if fields[i].Type == value.String {
			fields[i].Width = 1 + r.Intn(12)
		}
	}
	layout := make([]bool, len(fields))
	for i := range layout {
		switch seed % 3 {
		case 0:
			layout[i] = true
		case 2:
			layout[i] = r.Intn(2) == 0
		}
	}
	store := &gateStore{Store: storage.NewMemStore(), entered: make(chan struct{}), resume: make(chan struct{})}
	tbl, err := table.New("rt", schema.MustNew(fields), table.Options{Store: store})
	if err != nil {
		tb.Fatal(err)
	}
	c := &roundTripCase{tbl: tbl}
	newRow := func() []value.Value {
		out := make([]value.Value, len(fields))
		for i, f := range fields {
			out[i] = caseValue(r, f)
		}
		c.probes = append(c.probes, out)
		return out
	}
	// The model: the committed live rows.
	var live [][]value.Value
	remove := func(row []value.Value) {
		i := slices.IndexFunc(live, func(l []value.Value) bool { return rowKey(l) == rowKey(row) })
		if i < 0 {
			tb.Fatalf("deleted row %v is not live", row)
		}
		live = slices.Delete(live, i, i+1)
	}
	var rows [][]value.Value
	if r.Intn(5) > 0 {
		for range 1 + r.Intn(300) {
			rows = append(rows, newRow())
		}
	}
	if err := tbl.BulkAppend(rows); err != nil {
		tb.Fatal(err)
	}
	live = append(live, rows...)
	if err := tbl.ApplyLayout(layout); err != nil {
		tb.Fatal(err)
	}
	if r.Intn(2) == 0 {
		if err := tbl.CreateIndex(r.Intn(len(fields))); err != nil {
			tb.Fatal(err)
		}
	}
	if len(fields) > 1 && r.Intn(2) == 0 {
		if err := tbl.CreateCompositeIndex(r.Perm(len(fields))[:2]); err != nil {
			tb.Fatal(err)
		}
	}
	mgr := tbl.Manager()
	commit := func(inserts, deletes int) {
		tx := mgr.Begin()
		var ins, del [][]value.Value
		for range inserts {
			row := newRow()
			if err := tbl.Insert(tx, row); err != nil {
				tb.Fatal(err)
			}
			ins = append(ins, row)
		}
		for range deletes {
			v := tbl.Pin()
			id := table.RowID(r.Intn(v.MainRows() + v.FrozenRows() + v.ActiveRows() + 1))
			visible := v.Visible(id, tx.Snapshot(), tx.ID())
			v.Release()
			if !visible {
				continue // deleted already, or not there
			}
			tuple, err := tbl.DeleteReturning(tx, id)
			if err != nil {
				tb.Fatal(err)
			}
			del = append(del, tuple)
		}
		if _, err := mgr.Commit(tx); err != nil {
			tb.Fatal(err)
		}
		live = append(live, ins...)
		for _, row := range del {
			remove(row)
		}
	}
	commit(r.Intn(20), r.Intn(10))

	var release func()
	quiesce := func() {
		c.snapshot, release = mgr.QuiescedLastCommit()
		c.want = slices.Clone(live)
	}
	parked, merged := false, make(chan error, 1)
	switch r.Intn(4) {
	case 0:
		quiesce()
		commit(r.Intn(10), r.Intn(10))
	case 1:
		quiesce()
		commit(r.Intn(10), r.Intn(10))
		if err := tbl.Merge(); err != nil {
			tb.Fatal(err)
		}
	case 2:
		store.armed.Store(true)
		go func() { merged <- tbl.Merge() }()
		select {
		case <-store.entered:
			parked = true
		case err := <-merged: // the merge wrote no page
			if err != nil {
				tb.Fatal(err)
			}
		}
		commit(r.Intn(10), r.Intn(5))
		quiesce()
		commit(r.Intn(10), r.Intn(5))
	default:
		if err := tbl.Merge(); err != nil {
			tb.Fatal(err)
		}
		commit(r.Intn(10), r.Intn(10))
		quiesce()
	}
	c.saved = tbl.Pin()
	if parked && c.saved.Frozen() == nil {
		tb.Fatal("parked merge shows no frozen delta")
	}
	var buf bytes.Buffer
	err = SaveAt(&buf, tbl, c.snapshot)
	release()
	store.armed.Store(false)
	close(store.resume)
	if parked {
		if err := <-merged; err != nil {
			tb.Fatal(err)
		}
	}
	if err != nil {
		tb.Fatal(err)
	}
	c.image = buf.Bytes()
	return c
}

// TestSnapshotRoundTripProperty saves 240 seeded tables and loads them
// back: the loaded main must be the saved one — codes, dictionaries,
// SSCG page bytes, histograms, distinct counts and index answers — and a
// fixed query set must answer as the model of the rows visible at the
// snapshot does.
func TestSnapshotRoundTripProperty(t *testing.T) {
	for seed := int64(0); seed < 240; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			c := buildRoundTripCase(t, seed)
			defer c.saved.Release()
			loaded, ts, err := LoadAt(bytes.NewReader(c.image), table.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if ts != c.snapshot {
				t.Fatalf("snapshot %d, want %d", ts, c.snapshot)
			}
			got := loaded.Pin()
			defer got.Release()
			requireSameMainArrays(t, c.saved, got, loaded.Schema())
			requireSameIndexes(t, c.tbl, loaded, c.saved, got, c.probes)
			requireSameAnswers(t, loaded, c)
		})
	}
}

func requireSameMainArrays(t *testing.T, want, got *table.View, s *schema.Schema) {
	t.Helper()
	if got.MainRows() != want.MainRows() {
		t.Fatalf("main rows %d, want %d", got.MainRows(), want.MainRows())
	}
	for col := 0; col < s.Len(); col++ {
		wm, gm := want.MRC(col), got.MRC(col)
		if (wm == nil) != (gm == nil) {
			t.Fatalf("column %d: MRC %v, want %v", col, gm != nil, wm != nil)
		}
		if wm != nil {
			wv, gv := wm.Dictionary().Values(), gm.Dictionary().Values()
			if !slices.Equal(gv.Ints, wv.Ints) || !slices.Equal(gv.Strs, wv.Strs) || !sameFloats(gv.Floats, wv.Floats) {
				t.Errorf("column %d dictionary %+v, want %+v", col, gv, wv)
			}
			if gm.Codes().Bits() != wm.Codes().Bits() || !slices.Equal(gm.Codes().Words(), wm.Codes().Words()) {
				t.Errorf("column %d codes differ", col)
			}
		}
		if !sameHistogram(got.Histogram(col), want.Histogram(col)) {
			t.Errorf("column %d histogram %+v, want %+v", col, got.Histogram(col), want.Histogram(col))
		}
	}
	if (want.Group() == nil) != (got.Group() == nil) {
		t.Fatalf("SSCG present %v, want %v", got.Group() != nil, want.Group() != nil)
	}
	if want.Group() != nil {
		if w, g := pages(t, want), pages(t, got); !slices.EqualFunc(g, w, bytes.Equal) {
			t.Errorf("SSCG pages differ: %d pages, want %d", len(g), len(w))
		}
	}
}

func pages(t *testing.T, v *table.View) [][]byte {
	t.Helper()
	var out [][]byte
	if err := v.Group().ReadPages(func(page []byte) error {
		out = append(out, bytes.Clone(page))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func sameFloats(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

func sameValues(a, b []value.Value) bool {
	return rowKey(a) == rowKey(b)
}

func sameHistogram(a, b *histogram.Histogram) bool {
	if a == nil || b == nil {
		return a == b
	}
	amin, abounds, acounts, adistinct := a.Parts()
	bmin, bbounds, bcounts, bdistinct := b.Parts()
	return sameValues([]value.Value{amin}, []value.Value{bmin}) && sameValues(abounds, bbounds) &&
		slices.Equal(acounts, bcounts) && adistinct == bdistinct
}

// requireSameIndexes compares the two mains' single-column indexes by
// their Eq and Between answers over the probe values, and the composite
// index definitions.
func requireSameIndexes(t *testing.T, src, loaded *table.Table, want, got *table.View, probes [][]value.Value) {
	t.Helper()
	if !slices.EqualFunc(loaded.CompositeIndexes(), src.CompositeIndexes(), slices.Equal) {
		t.Errorf("composite indexes %v, want %v", loaded.CompositeIndexes(), src.CompositeIndexes())
	}
	for col := 0; col < loaded.Schema().Len(); col++ {
		wi, gi := want.Index(col), got.Index(col)
		if (wi == nil) != (gi == nil) {
			t.Fatalf("column %d index %v, want %v", col, gi != nil, wi != nil)
		}
		if wi == nil {
			continue
		}
		for i, p := range probes {
			k := p[col]
			if g, w := gi.Eq(k), wi.Eq(k); !slices.Equal(g, w) {
				t.Errorf("column %d Eq %v: %v, want %v", col, k, g, w)
			}
			hi := probes[(i*7+3)%len(probes)][col]
			if k.Compare(hi) > 0 {
				k, hi = hi, k
			}
			if g, w := gi.Between(k, hi), wi.Between(k, hi); !slices.Equal(g, w) {
				t.Errorf("column %d Between %v and %v: %v, want %v", col, k, hi, g, w)
			}
		}
	}
}

// requireSameAnswers runs a fixed query set on the loaded table — every
// row, then an Eq and a Between per column, and a lookup per composite
// index, over probe values — and checks each answer against the model's
// rows visible at the snapshot.
func requireSameAnswers(t *testing.T, loaded *table.Table, c *roundTripCase) {
	t.Helper()
	s := loaded.Schema()
	all := make([]int, s.Len())
	for i := range all {
		all[i] = i
	}
	ex := exec.New(loaded, exec.Options{})
	query := func(preds ...exec.Predicate) []string {
		res, err := ex.Run(exec.Query{Predicates: preds, Project: all}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return keys(res.Rows)
	}
	model := func(keep func(row []value.Value) bool) []string {
		var rows [][]value.Value
		for _, row := range c.want {
			if keep(row) {
				rows = append(rows, row)
			}
		}
		return keys(rows)
	}
	if got, want := query(), keys(c.want); !slices.Equal(got, want) {
		t.Fatalf("loaded rows %v, want %v", got, want)
	}
	if len(c.probes) == 0 {
		return
	}
	r := rand.New(rand.NewSource(int64(len(c.probes))))
	for range 3 {
		p, q := c.probes[r.Intn(len(c.probes))], c.probes[r.Intn(len(c.probes))]
		for col := 0; col < s.Len(); col++ {
			lo, hi := p[col], q[col]
			if lo.Compare(hi) > 0 {
				lo, hi = hi, lo
			}
			eq := query(exec.Predicate{Column: col, Op: exec.Eq, Value: lo})
			if want := model(func(row []value.Value) bool { return row[col].Compare(lo) == 0 }); !slices.Equal(eq, want) {
				t.Errorf("column %d Eq %v: %v, want %v", col, lo, eq, want)
			}
			rng := query(exec.Predicate{Column: col, Op: exec.Between, Value: lo, Hi: hi})
			if want := model(func(row []value.Value) bool { return row[col].Compare(lo) >= 0 && row[col].Compare(hi) <= 0 }); !slices.Equal(rng, want) {
				t.Errorf("column %d Between %v and %v: %v, want %v", col, lo, hi, rng, want)
			}
		}
		v := loaded.Pin()
		for _, cols := range loaded.CompositeIndexes() {
			key := []value.Value{p[cols[0]], p[cols[1]]}
			ids, err := v.LookupComposite(cols, key, c.snapshot, 0)
			if err != nil {
				t.Fatal(err)
			}
			var rows [][]value.Value
			for _, id := range ids {
				row, err := v.GetTuple(id)
				if err != nil {
					t.Fatal(err)
				}
				rows = append(rows, row)
			}
			want := model(func(row []value.Value) bool { return row[cols[0]].Equal(key[0]) && row[cols[1]].Equal(key[1]) })
			if got := keys(rows); !slices.Equal(got, want) {
				t.Errorf("composite %v lookup %v: %v, want %v", cols, key, got, want)
			}
		}
		v.Release()
	}
}
