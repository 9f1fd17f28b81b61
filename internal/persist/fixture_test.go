package persist

import (
	"bytes"
	"math"
	"os"
	"slices"
	"testing"

	"tierdb/internal/mvcc"
	"tierdb/internal/schema"
	"tierdb/internal/table"
	"tierdb/internal/value"
)

// testdata/tierdb03.snap is the TIERDB03 image SaveAt wrote of the table
// fixtureV3Table builds, at fixtureV3Ts: eight bulk-loaded main rows
// under the layout [MRC, SSCG, SSCG] (the SSCG fits one page), row
// fixtureV3Deleted deleted, two delta rows inserted, an index on id and
// one on (id, tag). Its cells hold NaN, -0 and the empty string. It pins
// the snapshot format: a change to any of its parts fails
// TestGoldenTIERDB03.
const (
	fixtureV3Ts      = 4
	fixtureV3Deleted = 5
)

// fixtureV3Rows returns the fixture table's rows in RowID order: the
// main's eight, then the delta's two.
func fixtureV3Rows() [][]value.Value {
	row := func(id int64, price float64, tag string) []value.Value {
		return []value.Value{value.NewInt(id), value.NewFloat(price), value.NewString(tag)}
	}
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	return [][]value.Value{
		row(0, 1.5, ""), row(1, nan, "alpha"), row(2, negZero, "beta"), row(3, -2.25, ""),
		row(4, 1e300, "alpha"), row(5, math.Inf(1), "gamma"), row(6, nan, "beta"), row(2, 0.5, "gamma"),
		row(100, 7, "delta"), row(2, -1, ""),
	}
}

// fixtureV3Table builds the fixture's table: the main from the first
// eight rows, then one commit deleting row fixtureV3Deleted and one per
// delta row after the bulk load's, fixtureV3Ts commits in all.
func fixtureV3Table(t *testing.T) *table.Table {
	t.Helper()
	s := schema.MustNew([]schema.Field{
		{Name: "id", Type: value.Int64},
		{Name: "price", Type: value.Float64},
		{Name: "tag", Type: value.String, Width: 8},
	})
	tbl, err := table.New("fixture", s, table.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rows := fixtureV3Rows()
	if err := tbl.BulkAppend(rows[:8]); err != nil {
		t.Fatal(err)
	}
	if err := tbl.ApplyLayout([]bool{true, false, false}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex(0); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateCompositeIndex([]int{0, 2}); err != nil {
		t.Fatal(err)
	}
	mgr := tbl.Manager()
	commit := func(op func(tx *mvcc.Tx) error) {
		tx := mgr.Begin()
		if err := op(tx); err != nil {
			t.Fatal(err)
		}
		if _, err := mgr.Commit(tx); err != nil {
			t.Fatal(err)
		}
	}
	commit(func(tx *mvcc.Tx) error { return tbl.Delete(tx, fixtureV3Deleted) })
	for _, row := range rows[8:] {
		commit(func(tx *mvcc.Tx) error { return tbl.Insert(tx, row) })
	}
	if ts := mgr.LastCommit(); ts != fixtureV3Ts {
		t.Fatalf("fixture table at timestamp %d, want %d", ts, fixtureV3Ts)
	}
	return tbl
}

// TestGoldenTIERDB03 loads the checked-in TIERDB03 image and pins what
// it restores — timestamp, layout, indexes, every row and the deleted
// one's invisibility — then saves the restored table at the same
// timestamp, and the table fixtureV3Table builds, and requires the
// image's bytes back exactly from both.
func TestGoldenTIERDB03(t *testing.T) {
	img, err := os.ReadFile("testdata/tierdb03.snap")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(img, magicV3) {
		t.Fatalf("fixture magic %q, want TIERDB03", img[:8])
	}
	tbl, ts, err := LoadAt(bytes.NewReader(img), table.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ts != fixtureV3Ts {
		t.Errorf("snapshot timestamp %d, want %d", ts, fixtureV3Ts)
	}
	if tbl.Name() != "fixture" || tbl.Schema().Field(2).Width != 8 {
		t.Errorf("table %q, tag width %d", tbl.Name(), tbl.Schema().Field(2).Width)
	}
	if got := tbl.Layout(); !slices.Equal(got, []bool{true, false, false}) {
		t.Errorf("layout %v", got)
	}
	if tbl.Index(0) == nil || tbl.Index(1) != nil || !slices.EqualFunc(tbl.CompositeIndexes(), [][]int{{0, 2}}, slices.Equal) {
		t.Errorf("indexes on id %v, on price %v, composites %v", tbl.Index(0) != nil, tbl.Index(1) != nil, tbl.CompositeIndexes())
	}
	want := fixtureV3Rows()
	if tbl.MainRows() != 8 || tbl.VisibleCount() != len(want)-1 {
		t.Errorf("%d main rows, %d visible; want 8 and %d", tbl.MainRows(), tbl.VisibleCount(), len(want)-1)
	}
	v := tbl.Pin()
	defer v.Release()
	for id, w := range want {
		got, err := getTuple(tbl, uint64(id))
		if err != nil {
			t.Fatal(err)
		}
		if !sameValues(got, w) || math.Signbit(got[1].Float()) != math.Signbit(w[1].Float()) {
			t.Errorf("row %d = %v, want %v", id, got, w)
		}
		if visible := v.Visible(uint64(id), ts, 0); visible != (id != fixtureV3Deleted) {
			t.Errorf("row %d visible at %d: %v", id, ts, visible)
		}
	}
	for name, src := range map[string]*table.Table{"restored": tbl, "built": fixtureV3Table(t)} {
		var again bytes.Buffer
		if err := SaveAt(&again, src, ts); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), img) {
			t.Errorf("%s table saved to %d bytes that differ from the fixture's %d", name, again.Len(), len(img))
		}
	}
}
