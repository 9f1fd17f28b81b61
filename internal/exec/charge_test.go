package exec

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tierdb/internal/device"
	"tierdb/internal/metrics"
	"tierdb/internal/schema"
	"tierdb/internal/storage"
	"tierdb/internal/table"
	"tierdb/internal/value"
)

// hookStore is a page store that calls hook, when one is set, before
// every page read.
type hookStore struct {
	storage.Store
	hook atomic.Pointer[func()]
}

func (s *hookStore) ReadPage(id storage.PageID, buf []byte) error {
	if h := s.hook.Load(); h != nil {
		(*h)()
	}
	return s.Store.ReadPage(id, buf)
}

// tieredTable builds an uncached table over (id, a, b, c) like newTable,
// with a and c on the timed store and inner under it.
func tieredTable(t *testing.T, inner storage.Store, r *metrics.Registry) (*table.Table, *storage.Clock) {
	t.Helper()
	s := schema.MustNew([]schema.Field{
		{Name: "id", Type: value.Int64},
		{Name: "a", Type: value.Int64},
		{Name: "b", Type: value.Int64},
		{Name: "c", Type: value.Int64},
	})
	clock := &storage.Clock{}
	store := storage.NewTimedStore(inner, device.XPoint, clock)
	store.Observe(r)
	tbl, err := table.New("t", s, table.Options{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]value.Value, 20000)
	for i := range rows {
		rows[i] = []value.Value{value.NewInt(int64(i)), value.NewInt(int64(i % 10)),
			value.NewInt(int64(i % 100)), value.NewInt(int64(i % 1000))}
	}
	if err := tbl.BulkAppend(rows); err != nil {
		t.Fatal(err)
	}
	if err := tbl.ApplyLayout([]bool{true, false, true, false}); err != nil {
		t.Fatal(err)
	}
	return tbl, clock
}

// TestDeviceChargeAtAnyParallelism pins the device charge of one
// uncached tiered query: R page reads by P workers advance the clock by
// ceil(R·RandomReadTime(1,P)/P), the read count by R and the
// modeled_read_ns counter by R·RandomReadTime(1,P).
func TestDeviceChargeAtAnyParallelism(t *testing.T) {
	r := metrics.NewRegistry()
	tbl, clock := tieredTable(t, storage.NewMemStore(), r)
	modeled := r.Counter("device.3d_xpoint.modeled_read_ns")
	q := Query{
		Predicates: []Predicate{{Column: 1, Op: Eq, Value: value.NewInt(3)}},
		Project:    []int{0, 3},
	}
	for p := 1; p <= 4; p++ {
		e := New(tbl, Options{Parallelism: p, MorselRows: 1024}) // no DRAM clock: the clock moves by device time alone
		ns0, reads0, modeled0 := clock.Elapsed(), clock.Reads(), modeled.Value()
		if _, err := e.Run(q, nil); err != nil {
			t.Fatal(err)
		}
		reads := clock.Reads() - reads0
		if reads == 0 {
			t.Fatalf("Parallelism %d: the tiered query read no pages", p)
		}
		total := time.Duration(reads) * device.XPoint.RandomReadTime(1, p)
		if got, want := clock.Elapsed()-ns0, (total+time.Duration(p)-1)/time.Duration(p); got != want {
			t.Errorf("Parallelism %d: clock moved %v for %d reads, want %v", p, got, reads, want)
		}
		if got := modeled.Value() - modeled0; got != int64(total) {
			t.Errorf("Parallelism %d: modeled_read_ns moved %d, want %d", p, got, int64(total))
		}
	}
}

// TestTraceAttributionUnderConcurrency checks that a traced query
// reports its own page reads and device time however many pages other
// queries read while it runs: query A's first page read blocks until a
// concurrent query B on the same table has finished, and A's trace must
// equal A's trace run alone.
func TestTraceAttributionUnderConcurrency(t *testing.T) {
	inner := &hookStore{Store: storage.NewMemStore()}
	tbl, clock := tieredTable(t, inner, nil)
	qa := Query{
		Predicates: []Predicate{{Column: 1, Op: Eq, Value: value.NewInt(3)}},
		Project:    []int{0, 3},
	}
	qb := Query{Predicates: []Predicate{{Column: 3, Op: Between, Value: value.NewInt(0), Hi: value.NewInt(99)}}}
	for _, par := range []int{1, 2} {
		t.Run(fmt.Sprintf("parallelism=%d", par), func(t *testing.T) {
			e := New(tbl, Options{Parallelism: par, MorselRows: 1024, Clock: clock})
			alone, want, err := e.RunTracedCtx(context.Background(), qa, nil)
			if err != nil {
				t.Fatal(err)
			}

			var once sync.Once
			var bReads atomic.Int64
			blocked, release := make(chan struct{}), make(chan struct{})
			hook := func() {
				first := false
				once.Do(func() { first = true })
				if first {
					close(blocked)
					<-release
					return
				}
				bReads.Add(1) // A's other worker may count here too; B's reads dominate
			}
			inner.hook.Store(&hook)
			defer inner.hook.Store(nil)

			type out struct {
				res *Result
				tr  *metrics.Trace
				err error
			}
			done := make(chan out, 1)
			go func() {
				res, tr, err := e.RunTracedCtx(context.Background(), qa, nil)
				done <- out{res, tr, err}
			}()
			select {
			case <-blocked:
			case <-time.After(10 * time.Second):
				t.Fatal("query A never read a page")
			}
			if _, err := e.Run(qb, nil); err != nil {
				t.Fatal(err)
			}
			if bReads.Load() == 0 {
				t.Fatal("query B read no pages while A was blocked")
			}
			close(release)
			got := <-done
			if got.err != nil {
				t.Fatal(got.err)
			}

			if !sameIDs(got.res.IDs, alone.IDs) {
				t.Errorf("A's result changed under concurrency")
			}
			if got.tr.PageReads != want.PageReads || got.tr.DeviceNs != want.DeviceNs || got.tr.DRAMNs != want.DRAMNs {
				t.Errorf("A's trace under concurrency: %d reads, %d device ns, %d DRAM ns; alone %d, %d, %d",
					got.tr.PageReads, got.tr.DeviceNs, got.tr.DRAMNs, want.PageReads, want.DeviceNs, want.DRAMNs)
			}
			if len(got.tr.Operators) != len(want.Operators) {
				t.Fatalf("A ran %d operators under concurrency, %d alone", len(got.tr.Operators), len(want.Operators))
			}
			for i, op := range got.tr.Operators {
				if op.PageReads != want.Operators[i].PageReads {
					t.Errorf("operator %d (%s %s): %d page reads under concurrency, %d alone",
						i, op.Name, op.Path, op.PageReads, want.Operators[i].PageReads)
				}
			}
		})
	}
}

// TestMRCScanChargeIgnoresTheSplit runs one fused MRC scan over many
// morsels at Parallelism 4, a hundred times: however many morsels each
// helper happened to claim, the query's modeled DRAM time is the same.
func TestMRCScanChargeIgnoresTheSplit(t *testing.T) {
	tbl, _ := newTable(t, 40000, nil)
	e := New(tbl, Options{Parallelism: 4, MorselRows: 1024})
	q := Query{Predicates: []Predicate{
		{Column: 1, Op: Eq, Value: value.NewInt(3)},
		{Column: 2, Op: Between, Value: value.NewInt(0), Hi: value.NewInt(49)},
	}}
	seen := map[int64]int{}
	for i := 0; i < 100; i++ {
		_, tr, err := e.RunTracedCtx(context.Background(), q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if op := tr.Operators[0]; op.Name != "scan" || op.Path != "mrc" {
			t.Fatalf("first operator %s %s, want an MRC scan", op.Name, op.Path)
		}
		seen[tr.DRAMNs]++
	}
	if len(seen) != 1 {
		t.Errorf("DRAM ns over 100 runs: %v, want one value", seen)
	}
}
