package exec

import (
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"tierdb/internal/amm"
	"tierdb/internal/device"
	"tierdb/internal/metrics"
	"tierdb/internal/schema"
	"tierdb/internal/storage"
	"tierdb/internal/table"
	"tierdb/internal/value"
)

// Allocation ceilings of the two Parallelism-1 shapes the wall-clock
// benchmark leans on. With position lists in the executor's pooled
// buffers the queries measure 6 and 7 (9 and 20 on the last commit that
// had a separate serial executor): the Result and its ids, the rows, and
// a closure or two per operator. The ceilings leave room for the race
// detector, under which sync.Pool drops one Put in four and the scan
// reads 8-9.
const (
	lookupAllocsCeiling  = 7  // indexed point lookup, 2 projected columns
	mrcScanAllocsCeiling = 10 // MRC scan + MRC probe over 10 000 rows, ids only
)

func TestInlineWorkerAllocs(t *testing.T) {
	tbl, _ := newTable(t, 10000, nil)
	if err := tbl.CreateIndex(0); err != nil {
		t.Fatal(err)
	}
	e := New(tbl, Options{})
	for _, tc := range []struct {
		name    string
		q       Query
		rows    int
		ceiling float64
	}{
		{"indexed lookup with projection", Query{
			Predicates: []Predicate{{Column: 0, Op: Eq, Value: value.NewInt(4242)}},
			Project:    []int{1, 3},
		}, 1, lookupAllocsCeiling},
		{"two-predicate MRC scan", Query{Predicates: []Predicate{
			{Column: 2, Op: Eq, Value: value.NewInt(42)},
			{Column: 3, Op: Between, Value: value.NewInt(0), Hi: value.NewInt(499)},
		}}, 50, mrcScanAllocsCeiling},
	} {
		res, err := e.Run(tc.q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.IDs) != tc.rows {
			t.Fatalf("%s: %d rows, want %d", tc.name, len(res.IDs), tc.rows)
		}
		got := testing.AllocsPerRun(200, func() {
			if _, err := e.Run(tc.q, nil); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocs/query", tc.name, got)
		if got > tc.ceiling {
			t.Errorf("%s: %.0f allocs/query, ceiling %.0f", tc.name, got, tc.ceiling)
		}
	}
}

// Allocation ceilings of a projected point lookup on a tiered table with
// a page cache, the shape of the tiered_probe benchmark: every worker
// reads the SSCG through its own counting view, which is kept with the
// pooled worker rather than built per query. The query measures 8 at
// Parallelism 1 and 10 at Parallelism 2; when Parallelism 2 forked a
// timed store, a clock and a view per worker per query it measured 18,
// and the ceilings hold it to that. Parallelism 1 keeps one allocation
// for the race detector (see TestInlineWorkerAllocs).
var tieredLookupAllocsCeiling = map[int]float64{1: 8 + 1, 2: 18}

func TestTieredLookupAllocs(t *testing.T) {
	clock := &storage.Clock{}
	store := storage.NewTimedStore(storage.NewMemStore(), device.XPoint, clock)
	cache, err := amm.New(64, store)
	if err != nil {
		t.Fatal(err)
	}
	s := schema.MustNew([]schema.Field{
		{Name: "id", Type: value.Int64},
		{Name: "a", Type: value.Int64},
		{Name: "b", Type: value.Int64},
	})
	tbl, err := table.New("t", s, table.Options{Store: store, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]value.Value, 10000)
	for i := range rows {
		rows[i] = []value.Value{value.NewInt(int64(i)), value.NewInt(int64(i % 10)), value.NewInt(int64(i % 100))}
	}
	if err := tbl.BulkAppend(rows); err != nil {
		t.Fatal(err)
	}
	if err := tbl.ApplyLayout([]bool{true, false, false}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex(0); err != nil {
		t.Fatal(err)
	}
	q := Query{
		Predicates: []Predicate{{Column: 0, Op: Eq, Value: value.NewInt(4242)}},
		Project:    []int{1, 2},
	}
	for _, par := range []int{1, 2} {
		e := New(tbl, Options{Parallelism: par, Clock: clock})
		if res, err := e.Run(q, nil); err != nil || len(res.IDs) != 1 {
			t.Fatalf("Parallelism %d: %v, %v", par, res, err)
		}
		got := testing.AllocsPerRun(200, func() {
			if _, err := e.Run(q, nil); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("Parallelism %d: %.0f allocs/query", par, got)
		if got > tieredLookupAllocsCeiling[par] {
			t.Errorf("Parallelism %d: %.0f allocs/query, ceiling %.0f", par, got, tieredLookupAllocsCeiling[par])
		}
	}
}

// goroutineProbe is a page store that records the highest goroutine
// count seen from inside a page read — that is, from inside a scan or
// materialize kernel.
type goroutineProbe struct {
	storage.Store
	peak atomic.Int64
}

func (p *goroutineProbe) ReadPage(id storage.PageID, buf []byte) error {
	n := int64(runtime.NumGoroutine())
	for {
		old := p.peak.Load()
		if n <= old || p.peak.CompareAndSwap(old, n) {
			break
		}
	}
	return p.Store.ReadPage(id, buf)
}

// TestOneWorkerRunsInline checks that a Parallelism-1 query does all
// its morsel work on the calling goroutine: seen from inside the SSCG
// scan and the tiered materialization, no goroutine has been started.
// The same query at Parallelism 4 must show workers, which proves the
// probe sees them.
func TestOneWorkerRunsInline(t *testing.T) {
	probe := &goroutineProbe{Store: storage.NewMemStore()}
	s := schema.MustNew([]schema.Field{
		{Name: "id", Type: value.Int64},
		{Name: "a", Type: value.Int64},
	})
	tbl, err := table.New("inline", s, table.Options{Store: probe})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]value.Value, 20000)
	for i := range rows {
		rows[i] = []value.Value{value.NewInt(int64(i)), value.NewInt(int64(i % 10))}
	}
	if err := tbl.BulkAppend(rows); err != nil {
		t.Fatal(err)
	}
	if err := tbl.ApplyLayout([]bool{true, false}); err != nil {
		t.Fatal(err)
	}
	q := Query{
		Predicates: []Predicate{{Column: 1, Op: Eq, Value: value.NewInt(3)}},
		Project:    []int{0, 1},
	}
	peak := func(par int) int64 {
		probe.peak.Store(0)
		if _, err := New(tbl, Options{Parallelism: par, MorselRows: 1024}).Run(q, nil); err != nil {
			t.Fatal(err)
		}
		return probe.peak.Load()
	}
	base := int64(runtime.NumGoroutine())
	if got := peak(1); got != base {
		t.Errorf("Parallelism 1: %d goroutines inside a kernel, %d outside the query", got, base)
	}
	if got := peak(4); got <= base {
		t.Errorf("Parallelism 4: %d goroutines inside a kernel, want more than %d", got, base)
	}
}

// TestMaterializeRecordSameAtAnyParallelism checks that the
// materialize operator is described the same way whatever the worker
// count: only the morsel fan-out (and the wall-clock stamps) may differ.
func TestMaterializeRecordSameAtAnyParallelism(t *testing.T) {
	tbl, _ := newTable(t, 20000, []bool{true, true, false, false})
	q := Query{
		Predicates: []Predicate{{Column: 1, Op: Eq, Value: value.NewInt(7)}},
		Project:    []int{0, 2, 3},
	}
	record := func(par int) metrics.OperatorTrace {
		_, tr, err := New(tbl, Options{Parallelism: par, MorselRows: 1024}).RunTraced(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		op, ok := findOp(tr, "materialize", "")
		if !ok {
			t.Fatalf("Parallelism %d: no materialize operator in %+v", par, tr.Operators)
		}
		if op.PageReads == 0 {
			t.Errorf("Parallelism %d: tiered materialize reports no page reads", par)
		}
		if par > 1 && op.Morsels == 0 {
			t.Errorf("Parallelism %d: materialize reports no morsels", par)
		}
		op.Morsels, op.StartNs, op.EndNs = 0, 0, 0
		return op
	}
	if one, four := record(1), record(4); one != four {
		t.Errorf("materialize record differs:\n P1 %+v\n P4 %+v", one, four)
	}
}

// TestPooledBuffersNeverAliasAResult checks that a Result owns its
// memory: the position buffers a query worked in go back to the
// executor's pool, later queries with many more matches, on every path
// that fills those buffers, overwrite them, and the first query's ids
// and rows must not change.
func TestPooledBuffersNeverAliasAResult(t *testing.T) {
	tbl, _ := newTable(t, 20000, []bool{true, true, true, false})
	if err := tbl.CreateIndex(0); err != nil {
		t.Fatal(err)
	}
	small := []Query{
		{Predicates: []Predicate{{Column: 2, Op: Eq, Value: value.NewInt(42)}}, Project: []int{0, 2}},                           // MRC scan
		{Predicates: []Predicate{{Column: 0, Op: Between, Value: value.NewInt(100), Hi: value.NewInt(120)}}, Project: []int{0}}, // index
		{Predicates: []Predicate{{Column: 3, Op: Eq, Value: value.NewInt(7)}}},                                                  // SSCG scan
		{Predicates: []Predicate{{Column: 1, Op: Eq, Value: value.NewInt(3)}, {Column: 3, Op: Eq, Value: value.NewInt(13)}}},    // MRC scan, SSCG scan + intersect
		{Predicates: []Predicate{{Column: 2, Op: Eq, Value: value.NewInt(9)}, {Column: 1, Op: Eq, Value: value.NewInt(9)}}},     // MRC scan + probe
		{Predicates: nil, Project: []int{1}}, // visible
	}
	big := []Query{
		{Predicates: []Predicate{{Column: 1, Op: Between, Value: value.NewInt(0), Hi: value.NewInt(8)}}},
		{Predicates: []Predicate{{Column: 0, Op: Between, Value: value.NewInt(0), Hi: value.NewInt(15000)}}},
		{Predicates: []Predicate{{Column: 3, Op: Between, Value: value.NewInt(0), Hi: value.NewInt(900)}}},
		{Predicates: []Predicate{{Column: 1, Op: Between, Value: value.NewInt(1), Hi: value.NewInt(9)}, {Column: 3, Op: Between, Value: value.NewInt(5), Hi: value.NewInt(999)}}},
		{},
	}
	for _, par := range []int{1, 2} {
		e := New(tbl, Options{Parallelism: par, MorselRows: 1024})
		for i, qa := range small {
			a, err := e.Run(qa, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(a.IDs) == 0 {
				t.Fatalf("Parallelism %d: small query %d matched nothing", par, i)
			}
			ids, rows := slices.Clone(a.IDs), fmt.Sprint(a.Rows)
			for _, qb := range big {
				b, err := e.Run(qb, nil)
				if err != nil {
					t.Fatal(err)
				}
				if len(b.IDs) < 10000 {
					t.Fatalf("Parallelism %d: an overwriting query matched only %d rows", par, len(b.IDs))
				}
			}
			if !slices.Equal(a.IDs, ids) || fmt.Sprint(a.Rows) != rows {
				t.Errorf("Parallelism %d: small query %d's result changed after later queries ran", par, i)
			}
		}
	}
}
