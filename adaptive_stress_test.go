package tierdb

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"tierdb/internal/wal"
)

// TestAdaptiveMergeCheckpointRaceStress runs the adaptive placement
// daemon flat-out against everything it must coordinate with: an armed
// merge scheduler plus explicit MergeAsync kicks, concurrent writers
// and snapshot readers, and checkpoints truncating the WAL — all under
// the race detector (the CI merge-stress lane picks this test up by
// name). Assertions are interleaving-independent:
//
//   - no worker observes an error other than the documented
//     ErrMergeInProgress backoffs;
//   - after the workload drains, the table holds exactly
//     initial + inserts rows with every key present exactly once;
//   - no page stays pinned in the AMM cache once the scheduler has
//     stopped (an adaptive apply racing a scan must not leak a pin);
//   - the adaptive report stays coherent (cycles >= applies + skips
//     attributed to the one table).
func TestAdaptiveMergeCheckpointRaceStress(t *testing.T) {
	const (
		writers   = 3
		readers   = 3
		perWriter = 250
		initial   = 2_000
		adapts    = 40
		ckpts     = 10
	)
	cfg := walConfig(wal.NewMemFS(), SyncAlways)
	cfg.Device = "CSSD"
	cfg.CacheFrames = 256
	cfg.MergeDeltaRows = 200
	cfg.mergeInterval = 1
	cfg.AdaptiveAlpha = driftAlpha
	cfg.AdaptiveBeta = driftBeta
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	db.sched.adapt.maxMove = 1
	defer db.Close()
	tbl, err := db.CreateTable("stress", stressFields())
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]Value, initial)
	for i := range rows {
		rows[i] = stressRow(int64(i))
	}
	if err := tbl.BulkLoad(rows); err != nil {
		t.Fatal(err)
	}

	errs := make(chan error, writers+readers+2)
	var wg sync.WaitGroup
	var writersLive atomic.Int32
	writersLive.Store(writers)

	// Writers: disjoint key ranges, occasional explicit merge kicks on
	// top of the armed scheduler.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer writersLive.Add(-1)
			base := int64(initial + w*perWriter)
			for i := int64(0); i < perWriter; i++ {
				if err := tbl.Insert(stressRow(base + i)); err != nil {
					errs <- fmt.Errorf("writer %d insert %d: %w", w, i, err)
					return
				}
				if i%50 == 0 {
					if err := tbl.MergeAsync(); err != nil {
						errs <- fmt.Errorf("writer %d MergeAsync: %w", w, err)
						return
					}
				}
			}
		}(w)
	}

	// Readers: filtered scans feeding the plan history the adaptive
	// daemon consumes, plus snapshot-consistency checks. These are the
	// scans whose pinned pages an in-flight ApplyLayout must not orphan.
	region, err := tbl.Eq("region", Int(3))
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for round := 0; writersLive.Load() > 0 || round < 10; round++ {
				tx := db.Begin()
				res1, err := tbl.Select(tx, []Predicate{region}, "k")
				if err != nil {
					errs <- fmt.Errorf("reader %d round %d: %w", r, round, err)
					return
				}
				res2, err := tbl.Select(tx, []Predicate{region}, "k")
				if err != nil {
					errs <- fmt.Errorf("reader %d round %d repeat: %w", r, round, err)
					return
				}
				if len(res1.IDs) != len(res2.IDs) {
					errs <- fmt.Errorf("reader %d round %d: snapshot drifted %d -> %d",
						r, round, len(res1.IDs), len(res2.IDs))
					return
				}
				if err := db.Abort(tx); err != nil {
					errs <- fmt.Errorf("reader %d round %d abort: %w", r, round, err)
					return
				}
			}
		}(r)
	}

	// The adaptive daemon, driven synchronously so every cycle overlaps
	// live writers, readers, and merges.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < adapts; i++ {
			if err := db.AdaptOnce(); err != nil && !errors.Is(err, ErrClosed) {
				errs <- fmt.Errorf("AdaptOnce %d: %w", i, err)
				return
			}
		}
	}()

	// Checkpoints serialize against merges and adaptive applies; each
	// one truncates the WAL while all of the above runs.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < ckpts; i++ {
			if err := db.Checkpoint(); err != nil {
				errs <- fmt.Errorf("checkpoint %d: %w", i, err)
				return
			}
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}
	// The workload has drained, but the scheduler may still be running a
	// merge a writer queued with MergeAsync (and the checkpoint after it),
	// reading pages through the cache. Under CPU load (two copies of the
	// test binary side by side) 7 runs in 600 found PinnedFrames = 1, each
	// with the scheduler goroutine inside Table.Merge. Stopping the
	// scheduler waits for that merge, so every check below runs with no
	// background reader left.
	db.sched.shutdown()

	// Exact accounting after the dust settles.
	mustMerge(t, tbl)
	want := initial + writers*perWriter
	if got := tbl.Rows(); got != want {
		t.Errorf("Rows = %d, want %d", got, want)
	}
	final, err := tbl.Select(nil, nil, "k")
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int64]bool, len(final.Rows))
	for _, row := range final.Rows {
		k := row[0].Int()
		if seen[k] {
			t.Fatalf("key %d appears twice", k)
		}
		seen[k] = true
	}
	if len(seen) != want {
		t.Errorf("distinct keys = %d, want %d", len(seen), want)
	}

	// No scan or apply may leave a page pinned once everything drains.
	if db.cache != nil {
		if got := db.cache.PinnedFrames(); got != 0 {
			t.Errorf("PinnedFrames = %d after drain, want 0", got)
		}
	}

	rep := db.AdaptiveStatus()
	if rep.Cycles != adapts {
		t.Errorf("adaptive cycles = %d, want %d", rep.Cycles, adapts)
	}
	if rep.Applies+rep.Skips+rep.Errors != adapts {
		t.Errorf("adaptive accounting: applies %d + skips %d + errors %d != cycles %d",
			rep.Applies, rep.Skips, rep.Errors, adapts)
	}
	if rep.Errors != 0 {
		t.Errorf("adaptive errors = %d, want 0", rep.Errors)
	}
}
