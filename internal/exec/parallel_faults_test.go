package exec

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"tierdb/internal/amm"
	"tierdb/internal/schema"
	"tierdb/internal/storage"
	"tierdb/internal/table"
	"tierdb/internal/value"
)

// newFaultTable builds a two-column table (id in DRAM, a tiered) whose
// SSCG pages go through an AMM cache backed by a fault-injecting store.
func newFaultTable(t *testing.T, n int) (*table.Table, *storage.FaultStore, *amm.Cache) {
	t.Helper()
	fs := storage.NewFaultStore(storage.NewMemStore())
	cache, err := amm.New(32, fs)
	if err != nil {
		t.Fatal(err)
	}
	s := schema.MustNew([]schema.Field{
		{Name: "id", Type: value.Int64},
		{Name: "a", Type: value.Int64},
	})
	tbl, err := table.New("faulty", s, table.Options{Store: fs, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]value.Value, n)
	for i := range rows {
		rows[i] = []value.Value{value.NewInt(int64(i)), value.NewInt(int64(i % 10))}
	}
	if err := tbl.BulkAppend(rows); err != nil {
		t.Fatal(err)
	}
	if err := tbl.ApplyLayout([]bool{true, false}); err != nil {
		t.Fatal(err)
	}
	return tbl, fs, cache
}

// waitGoroutines polls until the goroutine count returns to the
// pre-scan baseline — a leaked worker would keep it elevated.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("goroutines leaked: %d running, baseline %d", runtime.NumGoroutine(), base)
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// checkFaultRecovery asserts the canonical post-fault invariants —
// exactly one error surfaced to the caller, no leaked workers, no
// pinned cache frames — and that after disarming, the parallel result
// matches the serial one.
func checkFaultRecovery(t *testing.T, tbl *table.Table, fs *storage.FaultStore, cache *amm.Cache, q Query, base int) {
	t.Helper()
	waitGoroutines(t, base)
	if pinned := cache.PinnedFrames(); pinned != 0 {
		t.Errorf("%d cache frames left pinned after failed scan", pinned)
	}
	fs.Disarm()
	got, err := New(tbl, Options{Parallelism: 4, morselRows: 1024}).Run(q, nil)
	if err != nil {
		t.Fatalf("post-disarm parallel run: %v", err)
	}
	want, err := New(tbl, Options{}).Run(q, nil)
	if err != nil {
		t.Fatalf("post-disarm serial run: %v", err)
	}
	if len(got.IDs) != len(want.IDs) {
		t.Fatalf("post-disarm: %d ids, serial %d", len(got.IDs), len(want.IDs))
	}
	for i := range want.IDs {
		if got.IDs[i] != want.IDs[i] {
			t.Fatalf("post-disarm id[%d] = %d, serial %d", i, got.IDs[i], want.IDs[i])
		}
	}
}

// TestParallelScanFaultInjection injects transient and sticky read
// faults under a 4-worker tiered scan: the caller gets ErrInjected
// exactly once, all workers drain (no goroutine leak), the cache keeps
// no pinned frames, and after disarming, results match serial again.
func TestParallelScanFaultInjection(t *testing.T) {
	for _, tc := range []struct {
		name   string
		sticky bool
	}{{"transient", false}, {"sticky", true}} {
		t.Run(tc.name, func(t *testing.T) {
			tbl, fs, cache := newFaultTable(t, 20000)
			e := New(tbl, Options{Parallelism: 4, morselRows: 1024})
			q := Query{Predicates: []Predicate{{Column: 1, Op: Eq, Value: value.NewInt(3)}}}
			base := runtime.NumGoroutine()
			fs.FailReadAfter(5, tc.sticky)
			if _, err := e.Run(q, nil); !errors.Is(err, storage.ErrInjected) {
				t.Fatalf("want ErrInjected, got %v", err)
			}
			checkFaultRecovery(t, tbl, fs, cache, q, base)
		})
	}
}

// TestParallelMaterializeFaultInjection pushes the fault into the
// parallel materialization phase: the filter runs on the DRAM column,
// so page reads (and the injected failure) happen while workers
// reconstruct tiered rows.
func TestParallelMaterializeFaultInjection(t *testing.T) {
	for _, tc := range []struct {
		name   string
		sticky bool
	}{{"transient", false}, {"sticky", true}} {
		t.Run(tc.name, func(t *testing.T) {
			tbl, fs, cache := newFaultTable(t, 20000)
			e := New(tbl, Options{Parallelism: 4, morselRows: 1024})
			q := Query{
				Predicates: []Predicate{{Column: 0, Op: Between, Value: value.NewInt(0), Hi: value.NewInt(19999)}},
				Project:    []int{0, 1},
			}
			base := runtime.NumGoroutine()
			fs.FailReadAfter(5, tc.sticky)
			if _, err := e.Run(q, nil); !errors.Is(err, storage.ErrInjected) {
				t.Fatalf("want ErrInjected, got %v", err)
			}
			checkFaultRecovery(t, tbl, fs, cache, q, base)
		})
	}
}
