package table

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"tierdb/internal/amm"
	"tierdb/internal/metrics"
	"tierdb/internal/storage"
	"tierdb/internal/value"
)

// faultyMergeTable builds a tiered table over a fault-injecting store
// wrapped around an accountable MemStore, with metrics on, loaded and
// tiered so a merge rebuilds a real SSCG.
func faultyMergeTable(t *testing.T, frames int) (*Table, *storage.FaultStore, *storage.MemStore, *amm.Cache, *metrics.Registry) {
	t.Helper()
	ms := storage.NewMemStore()
	fs := storage.NewFaultStore(ms)
	reg := metrics.NewRegistry()
	opts := Options{Store: fs, Registry: reg}
	var cache *amm.Cache
	if frames > 0 {
		var err error
		cache, err = amm.New(frames, fs)
		if err != nil {
			t.Fatal(err)
		}
		opts.Cache = cache
	}
	tbl, err := New("faulty", testSchema(), opts)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]value.Value, 600)
	for i := range rows {
		rows[i] = row(int64(i), int64(i%10), fmt.Sprintf("n%d", i%4))
	}
	if err := tbl.BulkAppend(rows); err != nil {
		t.Fatal(err)
	}
	if err := tbl.ApplyLayout([]bool{true, false, false}); err != nil {
		t.Fatal(err)
	}
	return tbl, fs, ms, cache, reg
}

// livePages returns the store's currently allocated (non-freed) pages.
func livePages(ms *storage.MemStore) int64 {
	return ms.NumPages() - int64(ms.FreeCount())
}

// TestOnlineMergeTransientWriteFaultMidRebuild injects a transient write
// fault into the shadow SSCG build. The merge must fail without
// installing anything: the old main keeps serving, the frozen delta is
// retained for retry, no shadow pages leak, and the retried merge folds
// everything.
func TestOnlineMergeTransientWriteFaultMidRebuild(t *testing.T) {
	tbl, fs, ms, _, reg := faultyMergeTable(t, 0)
	mgr := tbl.Manager()
	tx := mgr.Begin()
	if err := tbl.Insert(tx, row(9999, 1, "n1")); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Commit(tx); err != nil {
		t.Fatal(err)
	}
	before := livePages(ms)
	goroutines := runtime.NumGoroutine()

	// Fail the 3rd page write: the shadow build dies with earlier pages
	// already allocated, exercising the partial-build cleanup.
	fs.FailWriteAfter(3, false)
	if err := tbl.Merge(); !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("merge under write fault: %v, want ErrInjected", err)
	}
	if got := reg.Counter("merge.failures").Value(); got != 1 {
		t.Errorf("merge.failures = %d, want 1", got)
	}
	if got := livePages(ms); got != before {
		t.Errorf("live pages after failed rebuild = %d, want %d (shadow pages leaked)", got, before)
	}
	withView(tbl, func(v *View) {
		if v.Frozen() == nil {
			t.Error("frozen delta not retained after failed merge")
		}
	})
	if tbl.Merging() {
		t.Error("still marked merging after failed merge")
	}
	if got := tbl.VisibleCount(); got != 601 {
		t.Errorf("VisibleCount after failed merge = %d, want 601", got)
	}

	// Writers keep going between the failure and the retry.
	tx = mgr.Begin()
	if err := tbl.Insert(tx, row(10000, 2, "n2")); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Commit(tx); err != nil {
		t.Fatal(err)
	}

	// The retry reuses the frozen delta and folds everything.
	if err := tbl.Merge(); err != nil {
		t.Fatalf("retry merge: %v", err)
	}
	if err := tbl.Merge(); err != nil { // fold the second insert too
		t.Fatalf("second retry merge: %v", err)
	}
	if got := tbl.VisibleCount(); got != 602 {
		t.Errorf("VisibleCount after recovery = %d, want 602", got)
	}
	if got := tbl.DeltaRows(); got != 0 {
		t.Errorf("DeltaRows after recovery = %d, want 0", got)
	}
	// The old main's pages were retired at the swap; live pages track
	// exactly one main partition's SSCG.
	if got := livePages(ms); got != before {
		t.Errorf("live pages after recovery = %d, want %d (retired pages leaked)", got, before)
	}
	// The merge ran on the calling goroutine; nothing may linger.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > goroutines+1 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > goroutines+1 {
		t.Errorf("goroutines grew from %d to %d across failed+retried merges", goroutines, got)
	}
}

// TestOnlineMergeStickyWriteFaultRecovery keeps the write path failing
// across several merge attempts (a dead device), then heals it. Every
// attempt must fail cleanly and leak nothing; the first attempt after
// healing succeeds.
func TestOnlineMergeStickyWriteFaultRecovery(t *testing.T) {
	tbl, fs, ms, cache, reg := faultyMergeTable(t, 16)
	mgr := tbl.Manager()
	tx := mgr.Begin()
	if err := tbl.Insert(tx, row(7777, 3, "n3")); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Commit(tx); err != nil {
		t.Fatal(err)
	}
	before := livePages(ms)

	fs.FailWriteAfter(2, true)
	for attempt := 0; attempt < 3; attempt++ {
		if err := tbl.Merge(); !errors.Is(err, storage.ErrInjected) {
			t.Fatalf("attempt %d under sticky fault: %v, want ErrInjected", attempt, err)
		}
		if got := livePages(ms); got != before {
			t.Fatalf("attempt %d leaked pages: live %d, want %d", attempt, got, before)
		}
		if got := tbl.VisibleCount(); got != 601 {
			t.Fatalf("attempt %d: VisibleCount = %d, want 601", attempt, got)
		}
	}
	if got := reg.Counter("merge.failures").Value(); got != 3 {
		t.Errorf("merge.failures = %d, want 3", got)
	}
	if cache.PinnedFrames() != 0 {
		t.Errorf("PinnedFrames = %d after failed merges, want 0", cache.PinnedFrames())
	}

	fs.Disarm()
	if err := tbl.Merge(); err != nil {
		t.Fatalf("merge after heal: %v", err)
	}
	if got := tbl.VisibleCount(); got != 601 {
		t.Errorf("VisibleCount after heal = %d, want 601", got)
	}
	if got := tbl.DeltaRows(); got != 0 {
		t.Errorf("DeltaRows after heal = %d, want 0", got)
	}
	if got := livePages(ms); got != before {
		t.Errorf("live pages after heal = %d, want %d", got, before)
	}
	if cache.PinnedFrames() != 0 {
		t.Errorf("PinnedFrames = %d after heal, want 0", cache.PinnedFrames())
	}
	// The healed table is fully readable through the cache.
	got, err := tbl.GetTuple(findByKey(t, tbl, 7777))
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Int() != 7777 || got[2].Str() != "n3" {
		t.Errorf("tuple after heal = %v", got)
	}
}

// TestOnlineMergeReadFaultMidRebuildKeepsServing injects a transient
// read fault into the rebuild's reads of the old SSCG, while a pinned
// reader holds the old epoch across the failure.
func TestOnlineMergeReadFaultMidRebuildKeepsServing(t *testing.T) {
	tbl, fs, ms, _, _ := faultyMergeTable(t, 0)
	mgr := tbl.Manager()
	tx := mgr.Begin()
	if err := tbl.Insert(tx, row(8888, 4, "n0")); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Commit(tx); err != nil {
		t.Fatal(err)
	}
	before := livePages(ms)

	v := tbl.Pin() // survives the failed merge and the successful one
	fs.FailReadAfter(1, false)
	if err := tbl.Merge(); !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("merge under read fault: %v, want ErrInjected", err)
	}
	if got := tbl.VisibleCount(); got != 601 {
		t.Errorf("VisibleCount after failed merge = %d, want 601", got)
	}
	if err := tbl.Merge(); err != nil {
		t.Fatalf("retry merge: %v", err)
	}
	// The pinned view still reads the retired main: its epoch keeps the
	// old pages allocated until release.
	tuple, err := v.GetTuple(0)
	if err != nil {
		t.Fatalf("pinned view read after swap: %v", err)
	}
	if tuple[0].Int() != 0 {
		t.Errorf("pinned view tuple = %v", tuple)
	}
	if got := livePages(ms); got <= before-int64(tbl.MainRows()) {
		t.Errorf("retired pages freed while still pinned: live %d", got)
	}
	v.Release()
	// Last reference gone: the retired SSCG's pages return to the
	// freelist, leaving exactly the new main's pages live.
	if got := livePages(ms); got != before {
		t.Errorf("live pages after release = %d, want %d", got, before)
	}
	if got := tbl.VisibleCount(); got != 601 {
		t.Errorf("VisibleCount after recovery = %d, want 601", got)
	}
}
