package table

import (
	"fmt"
	"testing"

	"tierdb/internal/amm"
	"tierdb/internal/schema"
	"tierdb/internal/storage"
	"tierdb/internal/value"
)

func testSchema() *schema.Schema {
	return schema.MustNew([]schema.Field{
		{Name: "id", Type: value.Int64},
		{Name: "qty", Type: value.Int64},
		{Name: "note", Type: value.String, Width: 12},
	})
}

func row(id, qty int64, note string) []value.Value {
	return []value.Value{value.NewInt(id), value.NewInt(qty), value.NewString(note)}
}

func loadedTable(t *testing.T, n int) *Table {
	t.Helper()
	tbl, err := New("t", testSchema(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]value.Value, n)
	for i := range rows {
		rows[i] = row(int64(i), int64(i%10), fmt.Sprintf("note%d", i%3))
	}
	if err := tbl.BulkAppend(rows); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Merge(); err != nil {
		t.Fatal(err)
	}
	return tbl
}

// withView runs fn against a pinned View of tbl's current structure.
func withView(tbl *Table, fn func(v *View)) {
	v := tbl.Pin()
	defer v.Release()
	fn(v)
}

func TestNewValidation(t *testing.T) {
	if _, err := New("", testSchema(), Options{}); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := New("t", nil, Options{}); err == nil {
		t.Error("nil schema accepted")
	}
}

func TestBulkLoadAndMerge(t *testing.T) {
	tbl := loadedTable(t, 100)
	if tbl.MainRows() != 100 {
		t.Errorf("MainRows = %d", tbl.MainRows())
	}
	if deltaRows(tbl) != 0 {
		t.Errorf("DeltaRows = %d after merge", deltaRows(tbl))
	}
	if tbl.VisibleCount() != 100 {
		t.Errorf("VisibleCount = %d", tbl.VisibleCount())
	}
	// Default layout: everything MRC, no SSCG.
	withView(tbl, func(v *View) {
		if v.Group() != nil {
			t.Error("unexpected SSCG under full-DRAM layout")
		}
	})
	got, err := getTuple(tbl, 42)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Int() != 42 || got[1].Int() != 2 || got[2].Str() != "note0" {
		t.Errorf("GetTuple(42) = %v", got)
	}
}

func TestApplyLayoutMovesColumnsToSSCG(t *testing.T) {
	tbl := loadedTable(t, 100)
	if err := tbl.ApplyLayout([]bool{true, false, false}); err != nil {
		t.Fatal(err)
	}
	withView(tbl, func(v *View) {
		if v.Group() == nil {
			t.Fatal("no SSCG after eviction")
		}
		if v.MRC(0) == nil || v.MRC(1) != nil || v.MRC(2) != nil {
			t.Error("MRC placement wrong")
		}
		if v.GroupField(0) != -1 || v.GroupField(1) != 0 || v.GroupField(2) != 1 {
			t.Errorf("group fields = %d %d %d", v.GroupField(0), v.GroupField(1), v.GroupField(2))
		}
	})
	// Data survives the re-tiering.
	got, err := getTuple(tbl, 42)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Int() != 42 || got[1].Int() != 2 || got[2].Str() != "note0" {
		t.Errorf("GetTuple after eviction = %v", got)
	}
	// Single-cell reads hit the right tier.
	v, err := tbl.GetValue(42, 1)
	if err != nil || v.Int() != 2 {
		t.Errorf("GetValue(42,1) = %v, %v", v, err)
	}
	if tbl.SecondaryBytes() <= 0 {
		t.Error("SecondaryBytes not positive after eviction")
	}
	// Re-loading everything back into DRAM works too.
	if err := tbl.ApplyLayout([]bool{true, true, true}); err != nil {
		t.Fatal(err)
	}
	withView(tbl, func(v *View) {
		if v.Group() != nil {
			t.Error("SSCG left over after re-loading")
		}
	})
	if tbl.ApplyLayout([]bool{true}) == nil {
		t.Error("short layout accepted")
	}
}

func TestInsertDeleteUpdateThroughTransactions(t *testing.T) {
	tbl := loadedTable(t, 10)
	mgr := tbl.Manager()

	// Insert a new row.
	tx := mgr.Begin()
	if err := tbl.Insert(tx, row(100, 5, "new")); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Commit(tx); err != nil {
		t.Fatal(err)
	}
	if tbl.VisibleCount() != 11 {
		t.Errorf("VisibleCount = %d after insert", tbl.VisibleCount())
	}

	// Delete a main-partition row.
	tx = mgr.Begin()
	if err := tbl.Delete(tx, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Commit(tx); err != nil {
		t.Fatal(err)
	}
	if tbl.VisibleCount() != 10 {
		t.Errorf("VisibleCount = %d after delete", tbl.VisibleCount())
	}
	late := mgr.Begin()
	withView(tbl, func(v *View) {
		if v.Visible(3, late.Snapshot(), late.ID()) {
			t.Error("deleted row visible")
		}
	})
	// Close the reader: an open snapshot would (correctly) hold dead
	// versions in the delta across the merge below.
	if err := mgr.Abort(late); err != nil {
		t.Fatal(err)
	}

	// Update a main-partition row (delete + insert).
	tx = mgr.Begin()
	if err := tbl.Update(tx, 5, row(5, 99, "upd")); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Commit(tx); err != nil {
		t.Fatal(err)
	}
	if tbl.VisibleCount() != 10 {
		t.Errorf("VisibleCount = %d after update", tbl.VisibleCount())
	}

	// Merge compacts deletions and carries delta rows into main.
	if err := tbl.Merge(); err != nil {
		t.Fatal(err)
	}
	if tbl.MainRows() != 10 {
		t.Errorf("MainRows = %d after merge, want 10", tbl.MainRows())
	}
	if deltaRows(tbl) != 0 {
		t.Errorf("DeltaRows = %d after merge", deltaRows(tbl))
	}
	// The updated tuple survived with new values.
	found := false
	for r := 0; r < tbl.MainRows(); r++ {
		tuple, err := getTuple(tbl, uint64(r))
		if err != nil {
			t.Fatal(err)
		}
		if tuple[0].Int() == 5 {
			found = true
			if tuple[1].Int() != 99 || tuple[2].Str() != "upd" {
				t.Errorf("updated tuple = %v", tuple)
			}
		}
		if tuple[0].Int() == 3 {
			t.Error("deleted tuple survived merge")
		}
	}
	if !found {
		t.Error("updated tuple missing after merge")
	}
}

func TestAbortRollsBack(t *testing.T) {
	tbl := loadedTable(t, 5)
	mgr := tbl.Manager()
	tx := mgr.Begin()
	if err := tbl.Insert(tx, row(50, 1, "x")); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Delete(tx, 0); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Abort(tx); err != nil {
		t.Fatal(err)
	}
	if tbl.VisibleCount() != 5 {
		t.Errorf("VisibleCount = %d after abort, want 5", tbl.VisibleCount())
	}
}

func TestIndexRebuildOnMerge(t *testing.T) {
	tbl := loadedTable(t, 50)
	if err := tbl.CreateIndex(0); err != nil {
		t.Fatal(err)
	}
	idx := tbl.Index(0)
	if idx == nil {
		t.Fatal("index missing")
	}
	if got := idx.Eq(value.NewInt(17)); len(got) != 1 || got[0] != 17 {
		t.Errorf("index lookup = %v", got)
	}
	// After inserting + merging, the index covers the new row.
	mgr := tbl.Manager()
	tx := mgr.Begin()
	if err := tbl.Insert(tx, row(500, 0, "y")); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Commit(tx); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Merge(); err != nil {
		t.Fatal(err)
	}
	idx = tbl.Index(0)
	if got := idx.Eq(value.NewInt(500)); len(got) != 1 {
		t.Errorf("index missing merged row: %v", got)
	}
	if err := tbl.CreateIndex(99); err == nil {
		t.Error("out-of-range index column accepted")
	}
}

func TestIndexOverSSCGColumn(t *testing.T) {
	tbl := loadedTable(t, 30)
	if err := tbl.ApplyLayout([]bool{true, false, false}); err != nil {
		t.Fatal(err)
	}
	// Indexes stay DRAM-resident even over evicted columns.
	if err := tbl.CreateIndex(1); err != nil {
		t.Fatal(err)
	}
	got := tbl.Index(1).Eq(value.NewInt(7))
	if len(got) != 3 { // qty = i%10 == 7 for rows 7,17,27
		t.Errorf("index over SSCG column found %d rows, want 3", len(got))
	}
}

func TestDistinctCountAndSelectivity(t *testing.T) {
	tbl := loadedTable(t, 100)
	if got := distinctCount(tbl, 1); got != 10 {
		t.Errorf("DistinctCount(qty) = %d, want 10", got)
	}
	if got := tbl.Selectivity(1); got != 0.1 {
		t.Errorf("Selectivity(qty) = %g, want 0.1", got)
	}
	// Statistics survive eviction (paper: selectivity estimates feed
	// the executor even for tiered columns).
	if err := tbl.ApplyLayout([]bool{true, false, false}); err != nil {
		t.Fatal(err)
	}
	if got := distinctCount(tbl, 1); got != 10 {
		t.Errorf("DistinctCount(qty) after eviction = %d, want 10", got)
	}
	if got := distinctCount(tbl, 99); got != 0 {
		t.Errorf("DistinctCount(out of range) = %d", got)
	}
}

func TestMemoryBytesShrinksWithEviction(t *testing.T) {
	tbl := loadedTable(t, 1000)
	full := tbl.MemoryBytes()
	if err := tbl.ApplyLayout([]bool{true, false, false}); err != nil {
		t.Fatal(err)
	}
	evicted := tbl.MemoryBytes()
	if evicted >= full {
		t.Errorf("MemoryBytes did not shrink: %d -> %d", full, evicted)
	}
}

func TestGetValueErrors(t *testing.T) {
	tbl := loadedTable(t, 5)
	if _, err := tbl.GetValue(0, 99); err == nil {
		t.Error("out-of-range column accepted")
	}
	if _, err := getTuple(tbl, 99); err == nil {
		t.Error("out-of-range tuple accepted")
	}
}

func TestTableWithCacheAndTimedStore(t *testing.T) {
	mem := storage.NewMemStore()
	cache, err := amm.New(8, mem)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := New("cached", testSchema(), Options{Store: mem, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]value.Value, 2000)
	for i := range rows {
		rows[i] = row(int64(i), int64(i%7), "c")
	}
	if err := tbl.BulkAppend(rows); err != nil {
		t.Fatal(err)
	}
	if err := tbl.ApplyLayout([]bool{true, false, false}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := getTuple(tbl, uint64(i%5)); err != nil {
			t.Fatal(err)
		}
	}
	if cache.Stats().Hits == 0 {
		t.Error("repeated tuple reconstructions never hit the cache")
	}
}

// getTuple reconstructs a full row through a pinned view, as the
// executor and the checkpoint do (no visibility check).
func getTuple(tbl *Table, id RowID) ([]value.Value, error) {
	v := tbl.Pin()
	defer v.Release()
	return v.GetTuple(id)
}

// deltaRows returns a pinned view's physical unmerged rows: the active
// delta plus, while a merge is in flight, the frozen one.
func deltaRows(tbl *Table) int {
	v := tbl.Pin()
	defer v.Release()
	return v.ActiveRows() + v.FrozenRows()
}

// distinctCount is a pinned view's distinct-value estimate of col.
func distinctCount(tbl *Table, col int) int {
	v := tbl.Pin()
	defer v.Release()
	return v.DistinctCount(col)
}
