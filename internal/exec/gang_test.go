package exec

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"tierdb/internal/amm"
	"tierdb/internal/schema"
	"tierdb/internal/storage"
	"tierdb/internal/table"
	"tierdb/internal/value"
)

// gangStore is a page store that watches the executor's workers from
// inside their page reads: which goroutines read, and, with kernels set,
// which of them read for the materialization, the highest goroutine count seen, how many
// reads are in flight and the most at once, and — at read failAt — an
// injected failure or, with cancel set, a cancelled query context.
type gangStore struct {
	storage.Store
	delay  time.Duration
	yield  atomic.Bool // Gosched inside every read
	failAt int64
	cancel context.CancelFunc
	// kernels has every read look at its stack for the materialization.
	kernels bool
	// stall is slept once, by the first read of a goroutine other than
	// owner.
	stall   time.Duration
	owner   int64
	stalled atomic.Bool

	mu                sync.Mutex
	readers, material map[int64]bool
	peak, most        atomic.Int64
	inflight          atomic.Int64
	reads             atomic.Int64
}

func (s *gangStore) ReadPage(id storage.PageID, buf []byte) error {
	defer s.inflight.Add(-1)
	if n := s.inflight.Add(1); n > s.most.Load() {
		s.most.Store(n) // racy maxima; the readers hold no lock here by design
	}
	if n := int64(runtime.NumGoroutine()); n > s.peak.Load() {
		s.peak.Store(n)
	}
	g, materialize := goroutineID(), false
	if s.kernels {
		var stack [4096]byte
		materialize = bytes.Contains(stack[:runtime.Stack(stack[:], false)], []byte(").materialize("))
	}
	s.mu.Lock()
	s.readers[g] = true
	if materialize {
		s.material[g] = true
	}
	s.mu.Unlock()
	if s.yield.Load() {
		runtime.Gosched()
	}
	if s.delay > 0 {
		time.Sleep(s.delay)
	}
	if s.stall > 0 && g != s.owner && s.stalled.CompareAndSwap(false, true) {
		time.Sleep(s.stall)
	}
	if s.reads.Add(1) == s.failAt {
		if s.cancel == nil {
			return storage.ErrInjected
		}
		s.cancel()
	}
	return s.Store.ReadPage(id, buf)
}

// reset forgets what earlier reads saw.
func (s *gangStore) reset() {
	s.mu.Lock()
	s.readers, s.material = map[int64]bool{}, map[int64]bool{}
	s.mu.Unlock()
	s.peak.Store(0)
	s.most.Store(0)
	s.reads.Store(0)
}

// goroutineID parses the calling goroutine's id from its stack header,
// "goroutine 123 [running]:".
func goroutineID() int64 {
	var buf [64]byte
	id, _ := strconv.ParseInt(string(bytes.Fields(buf[:runtime.Stack(buf[:], false)])[1]), 10, 64)
	return id
}

// helperIDs lists the goroutines running or waiting to run a gang
// helper.
func helperIDs() []int64 {
	buf := make([]byte, 1<<20)
	var ids []int64
	for _, g := range bytes.Split(buf[:runtime.Stack(buf, true)], []byte("\n\n")) {
		if bytes.Contains(g, []byte("created by tierdb/internal/exec.(*scratch).staff")) {
			id, _ := strconv.ParseInt(string(bytes.Fields(g)[1]), 10, 64)
			ids = append(ids, id)
		}
	}
	return ids
}

// gangTable builds an n-row table whose id column is DRAM-resident and
// whose a (i mod 10) and b (i mod 100) are tiered, its pages read
// through store, or through a cache of frames over it when frames > 0.
func gangTable(t *testing.T, store *gangStore, n, frames int) (*table.Table, *amm.Cache) {
	t.Helper()
	store.Store = storage.NewMemStore()
	store.reset()
	opts := table.Options{Store: store}
	var cache *amm.Cache
	if frames > 0 {
		var err error
		if cache, err = amm.New(frames, store); err != nil {
			t.Fatal(err)
		}
		opts.Cache = cache
	}
	tbl, err := table.New("gang", schema.MustNew([]schema.Field{
		{Name: "id", Type: value.Int64},
		{Name: "a", Type: value.Int64},
		{Name: "b", Type: value.Int64},
	}), opts)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]value.Value, n)
	for i := range rows {
		rows[i] = []value.Value{value.NewInt(int64(i)), value.NewInt(int64(i % 10)), value.NewInt(int64(i % 100))}
	}
	if err := tbl.BulkAppend(rows); err != nil {
		t.Fatal(err)
	}
	if err := tbl.ApplyLayout([]bool{true, false, false}); err != nil {
		t.Fatal(err)
	}
	return tbl, cache
}

// gangQuery reads pages in three regions: an SSCG scan, a second SSCG
// scan and the tiered materialization.
var gangQuery = Query{
	Predicates: []Predicate{
		{Column: 1, Op: Eq, Value: value.NewInt(3)},
		{Column: 2, Op: Between, Value: value.NewInt(0), Hi: value.NewInt(49)},
	},
	Project: []int{0, 1, 2},
}

// TestGangHelpersServeEveryRegion checks that a query at Parallelism p
// runs at most p workers at once however many regions it runs — seen
// from inside the page reads of its three regions, no more than p reads
// are ever in flight — that its later regions run on helpers too: the
// materialization's pages are read by two goroutines or more, even when
// the helpers left while the caller worked between regions, and that a
// query none of whose regions has two units starts no goroutine.
func TestGangHelpersServeEveryRegion(t *testing.T) {
	store := &gangStore{delay: 20 * time.Microsecond, kernels: true}
	tbl, _ := gangTable(t, store, 20000, 0)
	base := runtime.NumGoroutine()
	for _, par := range []int{2, 4} {
		e := New(tbl, Options{Parallelism: par, MorselRows: 1024})
		for trial := 0; trial < 3; trial++ {
			waitGoroutines(t, base)
			store.reset()
			if _, err := e.Run(gangQuery, nil); err != nil {
				t.Fatal(err)
			}
			if n := store.most.Load(); n > int64(par) {
				t.Errorf("Parallelism %d: %d page reads in flight at once, want at most %d", par, n, par)
			}
			if n := len(store.material); n < 2 {
				t.Errorf("Parallelism %d: %d goroutines read the materialization's pages, want 2 or more", par, n)
			}
		}
	}

	small, _ := gangTable(t, store, 500, 0)
	one := Query{
		Predicates: []Predicate{{Column: 0, Op: Eq, Value: value.NewInt(7)}, {Column: 1, Op: Eq, Value: value.NewInt(7)}},
		Project:    []int{1},
	}
	waitGoroutines(t, base)
	store.reset()
	res, err := New(small, Options{Parallelism: 4, MorselRows: 1024}).Run(one, nil)
	if err != nil || len(res.IDs) != 1 {
		t.Fatalf("single-unit query: %v, %v", res, err)
	}
	if got := store.peak.Load(); got != int64(base) {
		t.Errorf("single-unit query at Parallelism 4: %d goroutines inside a kernel, %d outside", got, base)
	}
}

// TestLateHelperTouchesNothing holds a query's helpers back until after
// Run has returned (one P, and the query never yields), then runs the
// next query on the same executor, whose pooled scratch the late helpers
// point into, yielding inside every page read so they run in its midst.
// They must claim nothing — no page read of the next query is theirs —
// and, under -race, touch no worker the next query's helpers use.
func TestLateHelperTouchesNothing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	store := &gangStore{}
	// Small enough that the held query ends before the scheduler
	// preempts it (10 ms) and lets its helpers run.
	tbl, _ := gangTable(t, store, 3000, 0)
	want, err := New(tbl, Options{}).Run(gangQuery, nil)
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	e := New(tbl, Options{Parallelism: 4, MorselRows: 1024})
	held := 0
	for i := 0; i < 10; i++ {
		store.yield.Store(false)
		if _, err := e.Run(gangQuery, nil); err != nil {
			t.Fatal(err)
		}
		late := helperIDs()
		held += len(late)
		store.reset()
		store.yield.Store(true)
		got, err := e.Run(gangQuery, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.IDs, want.IDs) {
			t.Fatalf("round %d: %d ids, serial %d", i, len(got.IDs), len(want.IDs))
		}
		for _, id := range late {
			if store.readers[id] {
				t.Errorf("round %d: helper goroutine %d of the previous query read a page of the next", i, id)
			}
		}
	}
	if held == 0 {
		t.Error("no helper was ever held back past Run")
	}
	store.yield.Store(false)
	waitGoroutines(t, base)
}

// TestGangReturnsAfterClaimedUnits checks that a failing unit and a
// cancelled context both end the query with their error only once every
// claimed unit has finished: when Run returns no page read is in flight
// and no cache frame is pinned. A query that succeeds leaves no pin
// behind either.
func TestGangReturnsAfterClaimedUnits(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cancel bool
		want   error
	}{{"unit error", false, storage.ErrInjected}, {"cancelled context", true, context.Canceled}} {
		t.Run(tc.name, func(t *testing.T) {
			store := &gangStore{delay: 100 * time.Microsecond}
			tbl, cache := gangTable(t, store, 20000, 16)
			e := New(tbl, Options{Parallelism: 4, MorselRows: 1024})
			for trial := int64(0); trial < 5; trial++ {
				ctx, cancel := context.WithCancel(context.Background())
				store.reset()
				store.failAt, store.cancel = 10+3*trial, nil
				if tc.cancel {
					store.cancel = cancel
				}
				_, err := e.RunCtx(ctx, gangQuery, nil)
				inflight, pinned := store.inflight.Load(), cache.PinnedFrames()
				cancel()
				if !errors.Is(err, tc.want) {
					t.Fatalf("trial %d: err %v, want %v", trial, err, tc.want)
				}
				if inflight != 0 || pinned != 0 {
					t.Errorf("trial %d: Run returned with %d page reads in flight and %d frames pinned", trial, inflight, pinned)
				}
			}
			store.failAt = 0
			for trial := 0; trial < 5; trial++ {
				if _, err := e.Run(gangQuery, nil); err != nil {
					t.Fatal(err)
				}
				if pinned := cache.PinnedFrames(); pinned != 0 {
					t.Errorf("Run returned with %d frames pinned", pinned)
				}
			}
		})
	}
}

// TestGangCallerSleepsWhileHelperReads checks that a caller whose helper is
// stuck in a slow page read sleeps rather than spins: a query in which a
// helper's read stalls for 200 ms costs the process little more CPU than
// the same query without the stall.
func TestGangCallerSleepsWhileHelperReads(t *testing.T) {
	const stall = 200 * time.Millisecond
	store := &gangStore{owner: goroutineID()}
	tbl, _ := gangTable(t, store, 5000, 0)
	e := New(tbl, Options{Parallelism: 2, MorselRows: 1024})
	cpu := func() time.Duration {
		var ru syscall.Rusage
		syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail with these arguments
		return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	query := func(stalled time.Duration) (used time.Duration, ok bool) {
		store.reset()
		store.stall = stalled
		store.stalled.Store(false)
		before := cpu()
		if _, err := e.Run(gangQuery, nil); err != nil {
			t.Fatal(err)
		}
		return cpu() - before, store.stalled.Load()
	}
	for trial := 0; trial < 3; trial++ {
		base, _ := query(0)
		used, ok := query(stall)
		if !ok {
			continue // no helper read a page
		}
		if used-base > stall/4 {
			t.Errorf("trial %d: %v of CPU with a helper's read stalled %v, %v without", trial, used, stall, base)
		}
		return
	}
	t.Skip("no helper read a page in three queries")
}

// TestParallelQueryAllocs checks that a second worker costs a query one
// allocation, its one goroutine start, and nothing per region: a
// three-MRC-predicate projected query (a scan fused with two probes, then
// the materialization) allocates at Parallelism 2 at most one more than
// at Parallelism 1. The race detector's sync.Pool drops one Put in four,
// which costs the larger worker set more, so the comparison is made only
// without it.
func TestParallelQueryAllocs(t *testing.T) {
	tbl, _ := newTable(t, 20000, nil)
	q := Query{
		Predicates: []Predicate{
			{Column: 1, Op: Eq, Value: value.NewInt(3)},
			{Column: 2, Op: Between, Value: value.NewInt(0), Hi: value.NewInt(49)},
			{Column: 3, Op: Between, Value: value.NewInt(0), Hi: value.NewInt(499)},
		},
		Project: []int{0, 3},
	}
	allocs := map[int]float64{}
	for _, par := range []int{1, 2} {
		e := New(tbl, Options{Parallelism: par, MorselRows: 1024})
		if res, err := e.Run(q, nil); err != nil || len(res.IDs) != 500 {
			t.Fatalf("Parallelism %d: %v, %v", par, res, err)
		}
		allocs[par] = testing.AllocsPerRun(200, func() {
			if _, err := e.Run(q, nil); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("Parallelism %d: %.0f allocs/query", par, allocs[par])
	}
	if !raceEnabled && allocs[2] > allocs[1]+1 {
		t.Errorf("Parallelism 2 allocates %.0f per query, Parallelism 1 %.0f: more than one goroutine start apart", allocs[2], allocs[1])
	}
}

// raceEnabled is set by race_test.go in a -race build.
var raceEnabled bool
