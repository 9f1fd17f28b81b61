package table

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"tierdb/internal/schema"
	"tierdb/internal/value"
)

// indexDomain is each column's values in TestIndexesMatchScan: few, so
// duplicates are heavy, with NaN of two signs, ±0, ±Inf, "" and a zero
// byte.
var indexDomain = [][]value.Value{
	{value.NewInt(-2), value.NewInt(0), value.NewInt(1), value.NewInt(math.MaxInt64)},
	{value.NewFloat(math.NaN()), value.NewFloat(math.Copysign(math.NaN(), -1)), value.NewFloat(math.Copysign(0, -1)),
		value.NewFloat(0), value.NewFloat(math.Inf(1)), value.NewFloat(math.Inf(-1)), value.NewFloat(1.5)},
	{value.NewString(""), value.NewString("a"), value.NewString("a\x00"), value.NewString("b")},
}

// TestIndexesMatchScan builds seeded tables — rows merged into a main
// under a random layout, possibly none, then more rows in the active
// delta, one insert at a time or as one batch — with an index on every
// column and a composite index on three column lists. Every Eq and
// Between of a single-column index must equal a brute-force scan of the
// main's rows, and every composite lookup one of all rows; a composite
// key of the wrong type is an error.
func TestIndexesMatchScan(t *testing.T) {
	s := schema.MustNew([]schema.Field{
		{Name: "i", Type: value.Int64},
		{Name: "f", Type: value.Float64},
		{Name: "s", Type: value.String, Width: 4},
	})
	composites := [][]int{{0, 1}, {1, 2}, {2, 0}}
	rng := rand.New(rand.NewSource(39))
	draw := func(n int) [][]value.Value {
		rows := make([][]value.Value, n)
		for r := range rows {
			for _, d := range indexDomain {
				rows[r] = append(rows[r], d[rng.Intn(len(d))])
			}
		}
		return rows
	}
	for trial := 0; trial < 60; trial++ {
		tbl, err := New("idx", s, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := tbl.BulkAppend(draw(rng.Intn(80))); err != nil {
			t.Fatal(err)
		}
		if err := tbl.ApplyLayout([]bool{rng.Intn(2) == 0, rng.Intn(2) == 0, rng.Intn(2) == 0}); err != nil {
			t.Fatal(err)
		}
		for col := range indexDomain {
			if err := tbl.CreateIndex(col); err != nil {
				t.Fatal(err)
			}
		}
		for _, cols := range composites {
			if err := tbl.CreateCompositeIndex(cols); err != nil {
				t.Fatal(err)
			}
		}
		if trial%2 == 0 {
			for _, row := range draw(rng.Intn(30)) {
				tx := tbl.Manager().Begin()
				if err := tbl.Insert(tx, row); err != nil {
					t.Fatal(err)
				}
				if _, err := tbl.Manager().Commit(tx); err != nil {
					t.Fatal(err)
				}
			}
		} else if err := tbl.BulkAppend(draw(rng.Intn(30))); err != nil {
			t.Fatal(err)
		}
		rows := make([][]value.Value, tbl.MainRows()+tbl.DeltaRows())
		for id := range rows {
			if rows[id], err = tbl.GetTuple(RowID(id)); err != nil {
				t.Fatal(err)
			}
		}
		scan := func(n int, match func(row []value.Value) bool) []uint32 {
			var out []uint32
			for id, row := range rows[:n] {
				if match(row) {
					out = append(out, uint32(id))
				}
			}
			return out
		}
		main := tbl.MainRows()
		for col, d := range indexDomain {
			idx := tbl.Index(col)
			for i, lo := range d {
				if got, want := idx.Eq(lo), scan(main, func(row []value.Value) bool { return row[col].Equal(lo) }); !slices.Equal(got, want) {
					t.Fatalf("trial %d column %d: Eq(%v) = %v, want %v", trial, col, lo, got, want)
				}
				for _, hi := range []value.Value{lo, d[(i+1)%len(d)], d[(i+3)%len(d)]} {
					want := scan(main, func(row []value.Value) bool { return row[col].Compare(lo) >= 0 && row[col].Compare(hi) <= 0 })
					slices.SortStableFunc(want, func(a, b uint32) int { return rows[a][col].Compare(rows[b][col]) })
					if got := idx.Between(lo, hi); !slices.Equal(got, want) {
						t.Fatalf("trial %d column %d: Between(%v, %v) = %v, want %v", trial, col, lo, hi, got, want)
					}
				}
			}
		}
		snapshot := tbl.Manager().LastCommit()
		for _, cols := range composites {
			for _, a := range indexDomain[cols[0]] {
				for _, b := range indexDomain[cols[1]] {
					got, err := lookupComposite(tbl, cols, []value.Value{a, b}, snapshot, 0)
					want := scan(len(rows), func(row []value.Value) bool { return row[cols[0]].Equal(a) && row[cols[1]].Equal(b) })
					if err != nil || !slices.EqualFunc(got, want, func(g RowID, w uint32) bool { return g == RowID(w) }) {
						t.Fatalf("trial %d: LookupComposite(%v, %v %v) = %v, %v; want %v", trial, cols, a, b, got, err, want)
					}
				}
			}
			if _, err := lookupComposite(tbl, cols, []value.Value{indexDomain[cols[1]][0], indexDomain[cols[0]][0]}, snapshot, 0); err == nil {
				t.Fatalf("trial %d: LookupComposite(%v) accepted a mistyped key", trial, cols)
			}
		}
	}
}

// TestCreateIndexAllocsIndependentOfRows pins what indexing an MRC
// allocates to O(1) objects: its offsets and positions are one array
// each, whatever the rows, and the index shares the MRC's dictionary.
func TestCreateIndexAllocsIndependentOfRows(t *testing.T) {
	s := schema.MustNew([]schema.Field{{Name: "k", Type: value.Int64}, {Name: "v", Type: value.Int64}})
	create := func(rows int) float64 {
		tbl, err := New("allocs", s, Options{})
		if err != nil {
			t.Fatal(err)
		}
		data := make([][]value.Value, rows)
		for i := range data {
			data[i] = []value.Value{value.NewInt(int64(i % 5000)), value.NewInt(int64(i))}
		}
		if err := tbl.BulkAppend(data); err != nil {
			t.Fatal(err)
		}
		if err := tbl.Merge(); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(3, func() {
			if err := tbl.CreateIndex(0); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := create(20_000), create(200_000)
	t.Logf("20k rows: %.0f allocs; 200k rows: %.0f allocs", small, large)
	if large > small+2 {
		t.Errorf("indexing a 200k-row MRC allocates %.0f times, want <= %.0f (20k rows: %.0f)", large, small+2, small)
	}
}
