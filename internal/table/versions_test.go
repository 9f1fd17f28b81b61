package table

import (
	"runtime"
	"testing"

	"tierdb/internal/value"
)

// TestMergedMainVersionsHeap holds the version store of a freshly merged
// 300 k-row main to at most a byte of heap a row: its rows share one
// begin, and the store keeps no part of the array the rebuild listed the
// begins in.
func TestMergedMainVersionsHeap(t *testing.T) {
	const rows = 300_000
	tbl := loadedTable(t, rows)
	vers := tbl.main.versions
	if n, _ := vers.Shared(); n != rows || vers.Bytes() > rows {
		t.Fatalf("%d of %d rows shared, Bytes %d", n, rows, vers.Bytes())
	}
	tbl = nil
	var held, freed runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&held)
	runtime.KeepAlive(vers)
	runtime.GC()
	runtime.ReadMemStats(&freed)
	if grown := int64(held.HeapAlloc) - int64(freed.HeapAlloc); grown > rows {
		t.Errorf("the version store holds %d B of heap for %d rows, want <= 1 B a row", grown, rows)
	}
}

// TestPinLatestCoversSwapPurge completes a merge between the moment a
// reader outside a transaction would once have read its snapshot and the
// moment it pins. The merge carries a row deleted after that snapshot
// and, with no snapshot registered below the delete, purges it. The
// snapshot PinLatest returns comes from the same lock hold as the View,
// so it already excludes the purged row; the stale one no longer
// describes the merged View.
func TestPinLatestCoversSwapPurge(t *testing.T) {
	tbl := loadedTable(t, 100)
	if err := tbl.CreateCompositeIndex([]int{0, 1}); err != nil {
		t.Fatal(err)
	}
	mgr := tbl.Manager()
	stale := mgr.LastCommit()
	tx := mgr.Begin()
	if err := tbl.Delete(tx, 5); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(tx, row(1000, 0, "late")); err != nil {
		t.Fatal(err)
	}
	deleted, err := mgr.Commit(tx)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Merge(); err != nil {
		t.Fatal(err)
	}

	v, snapshot := tbl.PinLatest()
	defer v.Release()
	if snapshot < deleted {
		t.Fatalf("PinLatest snapshot %d predates the delete at %d the View reflects", snapshot, deleted)
	}
	if got := v.VisibleCount(snapshot); got != 100 {
		t.Errorf("VisibleCount(%d) = %d, want 100", snapshot, got)
	}
	// The stale snapshot still sees row 5 in truth, but the swap purged
	// it: against the merged View it would count 99.
	if got := v.VisibleCount(stale); got != 99 {
		t.Fatalf("VisibleCount(stale %d) = %d; the merge did not purge row 5", stale, got)
	}
	for _, c := range []struct {
		id   int64
		want int
	}{{5, 0}, {1000, 1}} {
		ids, err := v.LookupComposite([]int{0, 1}, []value.Value{value.NewInt(c.id), value.NewInt(c.id % 10)}, snapshot, 0)
		if err != nil || len(ids) != c.want {
			t.Errorf("LookupComposite(id %d) = %v, %v; want %d rows", c.id, ids, err, c.want)
		}
	}
}
