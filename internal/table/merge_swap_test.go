package table

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestMergeSwapVisibleCount holds the row count steady across a merge
// swap that re-bases stragglers. Each round leaves provisional inserts
// in the delta, lets the merge freeze it, and commits them from
// hookAfterFreeze — after the rebuild snapshot, so the rebuild cannot
// fold them and the swap must move them from the frozen delta into the
// active one. From that commit on the committed total is fixed, and a
// reader looping VisibleCount until Merge returns must read exactly it
// every time: a reader that captured the frozen delta and then counted
// the active one without the capture-time bound read the stragglers
// twice.
func TestMergeSwapVisibleCount(t *testing.T) {
	const base, late, rounds = 2000, 50, 25
	tbl := loadedTable(t, base)
	mgr := tbl.Manager()
	want := base
	for round := 0; round < rounds; round++ {
		tx := mgr.Begin()
		for i := 0; i < late; i++ {
			if err := tbl.Insert(tx, row(int64(want+i), 1, "late")); err != nil {
				t.Fatal(err)
			}
		}
		want += late

		var (
			reader   sync.WaitGroup
			readings atomic.Int64
			wrong    atomic.Int64
			stop     = make(chan struct{})
			before   *View
		)
		// Merge runs on this goroutine, and so do its hooks.
		tbl.hookAfterFreeze = func() {
			if _, err := mgr.Commit(tx); err != nil {
				t.Fatal(err)
			}
			reader.Add(1)
			go func() {
				defer reader.Done()
				for {
					if got := tbl.VisibleCount(); got != want {
						wrong.Store(int64(got))
						return
					}
					readings.Add(1)
					select {
					case <-stop:
						return
					default:
					}
				}
			}()
		}
		// The swap waits for the reader to be looping, so readings span it.
		tbl.hookBeforeSwap = func() {
			for readings.Load() == 0 && wrong.Load() == 0 {
				runtime.Gosched()
			}
			before = tbl.Pin()
		}
		err := tbl.Merge()
		close(stop)
		reader.Wait()
		if err != nil {
			t.Fatalf("round %d: merge: %v", round, err)
		}
		if got := wrong.Load(); got != 0 {
			t.Fatalf("round %d: VisibleCount read %d during the merge, committed total is %d", round, got, want)
		}

		// A View pinned before the swap and one pinned after it describe
		// the same rows through different partitions.
		after := tbl.Pin()
		snapshot := mgr.LastCommit()
		if before.Frozen() == nil || after.Frozen() != nil {
			t.Fatalf("round %d: views not on either side of the swap", round)
		}
		if b, a := before.VisibleCount(snapshot), after.VisibleCount(snapshot); b != want || a != want {
			t.Fatalf("round %d: VisibleCount(%d) = %d before the swap, %d after, want %d", round, snapshot, b, a, want)
		}
		if got := after.ActiveRows(); got != late {
			t.Fatalf("round %d: %d rows re-based into the active delta, want %d", round, got, late)
		}
		before.Release()
		after.Release()
	}
}
