package table

import (
	"testing"

	"tierdb/internal/mvcc"
	"tierdb/internal/value"
)

func TestCompositeIndexLookup(t *testing.T) {
	tbl := loadedTable(t, 100) // (id, qty=id%10, note=note{id%3})
	if err := tbl.CreateCompositeIndex([]int{1, 2}); err != nil {
		t.Fatal(err)
	}
	snap := tbl.Manager().LastCommit()
	// qty=7, note="note1": rows with id%10==7 and id%3==1 -> id in
	// {7, 37, 67, 97}.
	got, err := lookupComposite(tbl, []int{1, 2},
		[]value.Value{value.NewInt(7), value.NewString("note1")}, snap, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := map[RowID]bool{7: true, 37: true, 67: true, 97: true}
	if len(got) != len(want) {
		t.Fatalf("LookupComposite = %v", got)
	}
	for _, id := range got {
		if !want[id] {
			t.Errorf("unexpected row %d", id)
		}
	}
}

func TestCompositeIndexCoversDelta(t *testing.T) {
	tbl := loadedTable(t, 20)
	if err := tbl.CreateCompositeIndex([]int{1, 2}); err != nil {
		t.Fatal(err)
	}
	mgr := tbl.Manager()
	tx := mgr.Begin()
	if err := tbl.Insert(tx, row(500, 7, "note1")); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Commit(tx); err != nil {
		t.Fatal(err)
	}
	snap := mgr.LastCommit()
	got, err := lookupComposite(tbl, []int{1, 2},
		[]value.Value{value.NewInt(7), value.NewString("note1")}, snap, 0)
	if err != nil {
		t.Fatal(err)
	}
	foundDelta := false
	for _, id := range got {
		if id >= uint64(tbl.MainRows()) {
			foundDelta = true
		}
	}
	if !foundDelta {
		t.Errorf("delta row missing from composite lookup: %v", got)
	}
}

func TestCompositeIndexRebuiltOnMerge(t *testing.T) {
	tbl := loadedTable(t, 30)
	if err := tbl.CreateCompositeIndex([]int{0, 1}); err != nil {
		t.Fatal(err)
	}
	mgr := tbl.Manager()
	tx := mgr.Begin()
	if err := tbl.Insert(tx, row(999, 3, "x")); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Commit(tx); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Merge(); err != nil {
		t.Fatal(err)
	}
	snap := mgr.LastCommit()
	got, err := lookupComposite(tbl, []int{0, 1},
		[]value.Value{value.NewInt(999), value.NewInt(3)}, snap, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Errorf("merged row not indexed: %v", got)
	}
	if n := len(tbl.CompositeIndexes()); n != 1 {
		t.Errorf("CompositeIndexes = %d", n)
	}
}

func TestCompositeIndexSurvivesEviction(t *testing.T) {
	tbl := loadedTable(t, 50)
	if err := tbl.ApplyLayout([]bool{true, false, false}); err != nil {
		t.Fatal(err)
	}
	// Composite index over one MRC and one SSCG column: indexes stay
	// DRAM-resident regardless of column placement.
	if err := tbl.CreateCompositeIndex([]int{1, 2}); err != nil {
		t.Fatal(err)
	}
	snap := tbl.Manager().LastCommit()
	got, err := lookupComposite(tbl, []int{1, 2},
		[]value.Value{value.NewInt(4), value.NewString("note1")}, snap, 0)
	if err != nil {
		t.Fatal(err)
	}
	// id%10==4 && id%3==1: ids 4, 34.
	if len(got) != 2 {
		t.Errorf("LookupComposite over tiered columns = %v", got)
	}
}

func TestCompositeIndexValidation(t *testing.T) {
	tbl := loadedTable(t, 5)
	if err := tbl.CreateCompositeIndex([]int{1}); err == nil {
		t.Error("single-column composite accepted")
	}
	if err := tbl.CreateCompositeIndex([]int{0, 99}); err == nil {
		t.Error("out-of-range column accepted")
	}
	if err := tbl.CreateCompositeIndex([]int{1, 1}); err == nil {
		t.Error("repeated column accepted")
	}
	if _, err := lookupComposite(tbl, []int{0, 1}, []value.Value{value.NewInt(1), value.NewInt(1)}, 1, 0); err == nil {
		t.Error("lookup on missing index accepted")
	}
	if err := tbl.CreateCompositeIndex([]int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := lookupComposite(tbl, []int{0, 1}, []value.Value{value.NewInt(1)}, 1, 0); err == nil {
		t.Error("short key accepted")
	}
}

func TestCompositeIndexVisibility(t *testing.T) {
	tbl := loadedTable(t, 10)
	if err := tbl.CreateCompositeIndex([]int{0, 1}); err != nil {
		t.Fatal(err)
	}
	mgr := tbl.Manager()
	tx := mgr.Begin()
	if err := tbl.Delete(tx, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Commit(tx); err != nil {
		t.Fatal(err)
	}
	snap := mgr.LastCommit()
	got, err := lookupComposite(tbl, []int{0, 1},
		[]value.Value{value.NewInt(3), value.NewInt(3)}, snap, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("deleted row visible through composite index: %v", got)
	}
}

// lookupComposite runs View.LookupComposite against a fresh pin.
func lookupComposite(tbl *Table, cols []int, key []value.Value, snapshot mvcc.Timestamp, self mvcc.TxID) ([]RowID, error) {
	v := tbl.Pin()
	defer v.Release()
	return v.LookupComposite(cols, key, snapshot, self)
}
