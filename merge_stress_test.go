package tierdb

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// stressFields is the schema for the merge stress tests: a unique key,
// a low-cardinality region, and a payload string.
func stressFields() []Field {
	return []Field{
		{Name: "k", Type: Int64Type},
		{Name: "region", Type: Int64Type},
		{Name: "note", Type: StringType, Width: 8},
	}
}

func stressRow(k int64) []Value {
	return []Value{Int(k), Int(k % 7), String(fmt.Sprintf("n%d", k%5))}
}

// mustMerge folds the delta, retrying while a scheduler-started merge
// of the same table drains.
func mustMerge(t *testing.T, tbl *Table) {
	t.Helper()
	for {
		err := tbl.Merge()
		if err == nil {
			return
		}
		if !errors.Is(err, ErrMergeInProgress) {
			t.Fatalf("merge: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMergeSchedulerConcurrentStress runs N insert-only writers and M
// snapshot readers against a table whose merge scheduler is armed with a
// low row threshold, so several online merge cycles overlap the
// workload. Assertions are interleaving-independent:
//
//   - every reader repeats the same traced query inside one transaction
//     and must see identical row counts both times (snapshot
//     consistency across any merges that completed in between), and the
//     count must be a multiple of the per-key insert pattern;
//   - after the workload drains and a final manual merge folds the
//     delta, the table holds exactly initial + inserts − deletes rows
//     with the delta empty.
func TestMergeSchedulerConcurrentStress(t *testing.T) {
	const (
		writers   = 4
		readers   = 3
		perWriter = 300
		initial   = 500
		rounds    = 8
	)
	db, err := Open(Config{Device: "CSSD", CacheFrames: 256, MergeDeltaRows: 150, mergeInterval: 1})
	if err != nil {
		t.Fatal(err)
	}
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
	// The armed scheduler may have taken the load's merge for itself;
	// a layout change needs it drained.
	mustMerge(t, tbl)
	if err := tbl.Inner().ApplyLayout([]bool{true, false, false}); err != nil {
		t.Fatal(err)
	}

	errs := make(chan error, writers+readers+1)
	var wg sync.WaitGroup

	// Writers: disjoint key ranges, insert-only during the race phase.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := int64(initial + w*perWriter)
			for i := int64(0); i < perWriter; i++ {
				if err := tbl.Insert(stressRow(base + i)); err != nil {
					errs <- fmt.Errorf("writer %d insert %d: %w", w, i, err)
					return
				}
				if i%64 == 0 {
					if err := tbl.MergeAsync(); err != nil {
						errs <- fmt.Errorf("writer %d MergeAsync: %w", w, err)
						return
					}
				}
			}
		}(w)
	}

	// Readers: each round opens a transaction, runs the same traced
	// query twice and demands identical results — whatever merges or
	// inserts landed in between must be invisible inside the snapshot.
	region, err := tbl.Eq("region", Int(3))
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				tx := db.Begin()
				res1, _, err := tbl.SelectExplainedCtx(context.Background(), tx, []Predicate{region}, "k")
				if err != nil {
					errs <- fmt.Errorf("reader %d round %d first select: %w", r, round, err)
					return
				}
				res2, _, err := tbl.SelectExplainedCtx(context.Background(), tx, []Predicate{region}, "k")
				if err != nil {
					errs <- fmt.Errorf("reader %d round %d second select: %w", r, round, err)
					return
				}
				if len(res1.IDs) != len(res2.IDs) {
					errs <- fmt.Errorf("reader %d round %d: snapshot drifted, %d then %d rows",
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
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// Quiescent phase: delete every 10th seed row (writers are done, so
	// RowIDs from a fresh query are stable until the next merge).
	mustMerge(t, tbl)
	all, err := tbl.Select(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	deletes := 0
	tx := db.Begin()
	for _, id := range all.IDs {
		k, err := tbl.GetValue(id, "k")
		if err != nil {
			t.Fatal(err)
		}
		if k.Int() < initial && k.Int()%10 == 0 {
			if err := tbl.Delete(tx, id); err != nil {
				t.Fatal(err)
			}
			deletes++
		}
	}
	if err := db.Commit(tx); err != nil {
		t.Fatal(err)
	}

	// Final merge and exact accounting.
	mustMerge(t, tbl)
	want := initial + writers*perWriter - deletes
	if got := tbl.Rows(); got != want {
		t.Errorf("Rows = %d, want %d (%d initial + %d inserted - %d deleted)",
			got, want, initial, writers*perWriter, deletes)
	}
	v := tbl.Inner().Pin()
	if d := v.ActiveRows() + v.FrozenRows(); d != 0 {
		t.Errorf("delta rows after final merge = %d, want 0", d)
	}
	v.Release()
	if tbl.Merging() {
		t.Error("Merging() true after final merge")
	}
	// Every key must be present exactly once.
	final, err := tbl.Select(nil, nil, "k")
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int64]bool, len(final.Rows))
	for _, row := range final.Rows {
		k := row[0].Int()
		if seen[k] {
			t.Fatalf("key %d appears twice after merges", k)
		}
		seen[k] = true
	}
	for k := int64(0); k < int64(initial+writers*perWriter); k++ {
		wantGone := k < initial && k%10 == 0
		if seen[k] == wantGone {
			t.Errorf("key %d: present=%v, want %v", k, seen[k], !wantGone)
		}
	}
}

// TestMergeAsyncAfterCloseAndShutdown exercises the scheduler's
// lifecycle: MergeAsync works while open, Close waits for the in-flight
// merge, and MergeAsync after Close reports ErrClosed. Close is safe to
// call twice.
func TestMergeAsyncAfterCloseAndShutdown(t *testing.T) {
	db, err := Open(Config{Device: "CSSD"})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("lifecycle", stressFields())
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < 50; k++ {
		if err := tbl.Insert(stressRow(k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.MergeAsync(); err != nil {
		t.Fatalf("MergeAsync while open: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// The queued merge either completed before shutdown or was dropped;
	// either way the table still answers reads consistently.
	if got := tbl.Rows(); got != 50 {
		t.Errorf("Rows after close = %d, want 50", got)
	}
	if err := tbl.MergeAsync(); err != ErrClosed {
		t.Errorf("MergeAsync after close: %v, want ErrClosed", err)
	}
	if err := db.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// TestBulkLoadRacesScheduledMerge loads batches while the merge
// scheduler is folding the same table. A batch that is committed and
// visible must not be reported as failed because its own merge lost the
// race (it used to surface ErrMergeInProgress); the scheduler folds it
// later, and no row is lost or doubled.
func TestBulkLoadRacesScheduledMerge(t *testing.T) {
	const (
		initial = 2000
		rounds  = 1000
		batch   = 3
	)
	db, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable("race", stressFields())
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
	next := int64(initial)
	for r := 0; r < rounds; r++ {
		// A non-empty delta gives the scheduled merge work to be caught in.
		if err := tbl.Insert(stressRow(next)); err != nil {
			t.Fatal(err)
		}
		next++
		if err := tbl.MergeAsync(); err != nil {
			t.Fatal(err)
		}
		load := make([][]Value, batch)
		for i := range load {
			load[i] = stressRow(next)
			next++
		}
		if err := tbl.BulkLoad(load); err != nil {
			t.Fatalf("round %d: BulkLoad after a visible commit: %v", r, err)
		}
		if got := tbl.Rows(); got != int(next) {
			t.Fatalf("round %d: %d rows visible after BulkLoad, want %d", r, got, next)
		}
	}
	mustMerge(t, tbl)
	if got := tbl.Rows(); got != int(next) {
		t.Errorf("%d rows after the final merge, want %d", got, next)
	}
	v := tbl.Inner().Pin()
	if d := v.ActiveRows() + v.FrozenRows(); d != 0 {
		t.Errorf("%d rows left in the delta after the final merge", d)
	}
	v.Release()
}
