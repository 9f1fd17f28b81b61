package tierdb

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"tierdb/internal/server"
	"tierdb/internal/server/client"
)

// Tests of the workload-to-layout loop as one pipeline: a query is
// recorded once (capture), every consumer prices placements from one
// model builder (model), and one goroutine rebuilds main partitions
// (act).

// loopTable is a four-column table with a and b evicted, so the solver
// has a move to recommend once they are filtered.
func loopTable(t *testing.T, cfg Config) (*DB, *Table) {
	t.Helper()
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	tbl, err := db.CreateTable("loop", []Field{
		{Name: "id", Type: Int64Type},
		{Name: "a", Type: Int64Type},
		{Name: "b", Type: Int64Type},
		{Name: "pay", Type: Int64Type},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]Value, 4000)
	for i := range rows {
		n := int64(i)
		rows[i] = []Value{Int(n), Int(n % 50), Int(n % 40), Int(n % 1000)}
	}
	if err := tbl.BulkLoad(rows); err != nil {
		t.Fatal(err)
	}
	if err := tbl.ApplyLayout(Layout{InDRAM: []bool{true, false, false, true}}); err != nil {
		t.Fatal(err)
	}
	return db, tbl
}

func mustEq(t *testing.T, tbl *Table, column string, v int64) Predicate {
	t.Helper()
	p, err := tbl.Eq(column, Int(v))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSelectAllocations pins the per-query allocation count of the two
// shapes the wall-clock benchmark leans on: 8 and 13 since a query's
// trace is one object and one worker probes its candidates as one chunk
// (12 and 20 before; 15 and 50 before the executor's position lists
// were pooled). The ceilings leave room for the race detector, under
// which sync.Pool drops one Put in four and the two queries read 8-9 and
// 14-15.
func TestSelectAllocations(t *testing.T) {
	_, tbl := loopTable(t, Config{Device: "3D XPoint", CacheFrames: 64})
	if err := tbl.CreateIndex("id"); err != nil {
		t.Fatal(err)
	}
	lookup := []Predicate{mustEq(t, tbl, "id", 1234)}
	between, err := tbl.Between("pay", Int(200), Int(400))
	if err != nil {
		t.Fatal(err)
	}
	three := []Predicate{mustEq(t, tbl, "a", 34), mustEq(t, tbl, "b", 34), between}
	for _, tc := range []struct {
		name    string
		preds   []Predicate
		project []string
		ceiling float64
	}{
		{"indexed lookup with projection", lookup, []string{"pay"}, 10},
		{"three predicates", three, nil, 16},
	} {
		run := func() {
			if _, err := tbl.Select(nil, tc.preds, tc.project...); err != nil {
				t.Fatal(err)
			}
		}
		run() // first execution creates the plan entry
		got := testing.AllocsPerRun(200, run)
		t.Logf("%s: %.0f allocs per Select", tc.name, got)
		if got > tc.ceiling {
			t.Errorf("%s: %.0f allocs per Select, ceiling %.0f", tc.name, got, tc.ceiling)
		}
	}
}

// TestParallelSelectAllocs: a Select whose scan hands morsels to two
// workers allocates no more than the same Select on one worker — the
// trace keeps each worker's morsel count inside the one traced object.
// The race detector's sync.Pool drops one Put in four, which costs the
// larger worker set more, so the comparison is made only without it.
func TestParallelSelectAllocs(t *testing.T) {
	allocs := map[int]float64{}
	for _, par := range []int{1, 2} {
		db, err := Open(Config{Device: "3D XPoint", Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		tbl, err := db.CreateTable("scan", []Field{{Name: "id", Type: Int64Type}, {Name: "a", Type: Int64Type}})
		if err != nil {
			t.Fatal(err)
		}
		rows := make([][]Value, 1<<16) // four morsels
		for i := range rows {
			rows[i] = []Value{Int(int64(i)), Int(int64(i % 97))}
		}
		if err := tbl.BulkLoad(rows); err != nil {
			t.Fatal(err)
		}
		p := mustEq(t, tbl, "a", 7)
		run := func() {
			if res, err := tbl.Select(nil, []Predicate{p}); err != nil || len(res.IDs) != 676 {
				t.Fatalf("Parallelism %d: %v, %v", par, res, err)
			}
		}
		run() // first execution creates the plan entry
		allocs[par] = testing.AllocsPerRun(100, run)
		t.Logf("Parallelism %d: %.1f allocs per Select", par, allocs[par])
	}
	if !raceEnabled && allocs[2] > allocs[1] {
		t.Errorf("Parallelism 2 allocates %.1f per Select, Parallelism 1 %.1f", allocs[2], allocs[1])
	}
}

// TestSelectAllocsFlatInRows: a projected Select's allocations do not
// grow with the rows it returns — the executor decodes into one arena per
// result and a chunk's SSCG strings into one string, and the client reads
// a reply's rows into one array and its strings out of one copy of the
// reply — through the root API and through the wire client alike. Each
// projection reads an MRC and an SSCG column: two integers, then two
// strings.
func TestSelectAllocsFlatInRows(t *testing.T) {
	db, _ := loopTable(t, Config{Device: "3D XPoint", CacheFrames: 64, ListenAddr: "127.0.0.1:0"})
	strs, err := db.CreateTable("strs", []Field{
		{Name: "id", Type: Int64Type},
		{Name: "tag", Type: StringType, Width: 8},
		{Name: "note", Type: StringType, Width: 24},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]Value, 4000)
	for i := range rows {
		rows[i] = []Value{Int(int64(i)), String(fmt.Sprintf("tag%d", i%50)), String(fmt.Sprintf("note %d", i))}
	}
	if err := strs.BulkLoad(rows); err != nil {
		t.Fatal(err)
	}
	if err := strs.ApplyLayout(Layout{InDRAM: []bool{true, true, false}}); err != nil {
		t.Fatal(err)
	}
	c, err := client.Dial(client.Config{Addr: db.ServerAddr()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, tc := range []struct {
		table   string
		project []string
	}{{"loop", []string{"pay", "a"}}, {"strs", []string{"tag", "note"}}} {
		tbl, err := db.Table(tc.table)
		if err != nil {
			t.Fatal(err)
		}
		allocs := func(hi int64) (root, wire float64) {
			p, err := tbl.Between("id", Int(0), Int(hi))
			if err != nil {
				t.Fatal(err)
			}
			rootRun := func() {
				if res, err := tbl.Select(nil, []Predicate{p}, tc.project...); err != nil || len(res.Rows) != int(hi+1) {
					t.Fatalf("Select: %d rows, %v; want %d", len(res.Rows), err, hi+1)
				}
			}
			wp := []server.Predicate{client.Between("id", Int(0), Int(hi))}
			wireRun := func() {
				if res, err := c.Select(tc.table, wp, tc.project...); err != nil || len(res.Rows) != int(hi+1) {
					t.Fatalf("wire Select: %d rows, %v; want %d", len(res.Rows), err, hi+1)
				}
			}
			rootRun()
			wireRun()
			return testing.AllocsPerRun(100, rootRun), testing.AllocsPerRun(100, wireRun)
		}
		root1, wire1 := allocs(0)
		root1000, wire1000 := allocs(999)
		t.Logf("%v: root API: %.1f allocs for 1 row, %.1f for 1000; wire: %.1f, %.1f", tc.project, root1, root1000, wire1, wire1000)
		if root1000-root1 > 4 {
			t.Errorf("%v: root API: 1000 rows cost %.1f allocs more than 1 row, want <= 4", tc.project, root1000-root1)
		}
		if wire1000-wire1 > 4 {
			t.Errorf("%v: wire client: 1000 rows cost %.1f allocs more than 1 row, want <= 4", tc.project, wire1000-wire1)
		}
	}
}

// schedulerLoops counts the goroutines running a database's background
// loop, by function name in the stack dump, once the count holds still:
// Close returns when the loop has signalled done, which is a moment
// before its goroutine is gone from the dump.
func schedulerLoops(t *testing.T) int {
	t.Helper()
	buf := make([]byte, 1<<20)
	last := -1
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		n := runtime.Stack(buf, true)
		if n == len(buf) {
			buf = make([]byte, 2*len(buf))
			continue
		}
		loops := strings.Count(string(buf[:n]), "tierdb.(*scheduler).loop(")
		if loops == last {
			return loops
		}
		last = loops
	}
	t.Fatal("background goroutine count never settled")
	return 0
}

// TestOneBackgroundGoroutine: Open starts exactly one maintenance
// goroutine whatever is configured, Close stops it, and the background
// entry points report ErrClosed afterwards.
func TestOneBackgroundGoroutine(t *testing.T) {
	before := schedulerLoops(t) // databases earlier tests left open
	db, err := Open(Config{Device: "CSSD", MergeDeltaRows: 100, adaptiveInterval: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	db.SetAdaptive(true)
	tbl, err := db.CreateTable("bg", testFields())
	if err != nil {
		t.Fatal(err)
	}
	if got := schedulerLoops(t) - before; got != 1 {
		t.Errorf("%d background goroutines after Open, want 1", got)
	}
	if err := tbl.MergeAsync(); err != nil {
		t.Errorf("MergeAsync while open: %v", err)
	}
	if err := db.AdaptOnce(); err != nil {
		t.Errorf("AdaptOnce while open: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if got := schedulerLoops(t) - before; got != 0 {
		t.Errorf("%d background goroutines after Close, want 0", got)
	}
	if err := tbl.MergeAsync(); err != ErrClosed {
		t.Errorf("MergeAsync after Close = %v, want ErrClosed", err)
	}
	if err := db.AdaptOnce(); err != ErrClosed {
		t.Errorf("AdaptOnce after Close = %v, want ErrClosed", err)
	}
	if err := db.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// TestOneModelBehindEveryVerdict: for the same plan list, the adaptive
// decision, the advisor and EXPLAIN's placement section price the live
// and the recommended placement from one builder — same sizes, same
// observed selectivities, same budget rule — so their costs are equal
// bit for bit, not merely close.
func TestOneModelBehindEveryVerdict(t *testing.T) {
	db, tbl := loopTable(t, Config{Device: "CSSD", CacheFrames: 64}) // alpha = beta = budget = 0
	const runs = 8                                                   // past DefaultAdvisorMinSamples: the overlay is active
	preds := []Predicate{mustEq(t, tbl, "a", 7), mustEq(t, tbl, "b", 7)}
	for i := 0; i < runs; i++ {
		if _, err := tbl.Select(nil, preds); err != nil {
			t.Fatal(err)
		}
	}
	plan, err := tbl.Explain(preds)
	if err != nil {
		t.Fatal(err)
	}
	adv, err := tbl.Advise(AdvisorQuery{})
	if err != nil {
		t.Fatal(err)
	}
	if adv.ObservedColumns != 2 || !adv.Changed {
		t.Fatalf("advisor saw %d observed columns, changed=%v; want 2, true", adv.ObservedColumns, adv.Changed)
	}
	if err := db.AdaptOnce(); err != nil {
		t.Fatal(err)
	}
	rep := db.AdaptiveStatus()
	if len(rep.Tables) != 1 || rep.Tables[0].WindowQueries != runs {
		t.Fatalf("adaptive report = %+v, want one decision over %d queries", rep.Tables, runs)
	}
	d := rep.Tables[0]
	if d.CurrentCost != adv.Current.ModeledCost || d.RecommendedCost != adv.Recommended.ModeledCost {
		t.Errorf("adaptive prices %g -> %g, advisor %g -> %g",
			d.CurrentCost, d.RecommendedCost, adv.Current.ModeledCost, adv.Recommended.ModeledCost)
	}
	// EXPLAIN prices one execution; the plan ran `runs` times.
	if runs*plan.Placement.CurrentCost != adv.Current.ModeledCost ||
		runs*plan.Placement.RecommendedCost != adv.Recommended.ModeledCost {
		t.Errorf("explain prices %d x (%g -> %g), advisor %g -> %g", runs,
			plan.Placement.CurrentCost, plan.Placement.RecommendedCost,
			adv.Current.ModeledCost, adv.Recommended.ModeledCost)
	}
	if d.RecommendedCost >= d.CurrentCost {
		t.Errorf("nothing to recommend: %g -> %g", d.CurrentCost, d.RecommendedCost)
	}
}

// TestRecommendersShareOneDecision: on a table queried too rarely for
// the observed-selectivity overlay to apply, RecommendLayout and Advise
// price the same model, so for the same request — budget unset (the
// live footprint) or relative, with or without a reallocation cost —
// they must recommend the same placement at the same modeled cost.
func TestRecommendersShareOneDecision(t *testing.T) {
	_, tbl := loopTable(t, Config{Device: "CSSD", CacheFrames: 64})
	for _, preds := range [][]Predicate{
		{mustEq(t, tbl, "a", 7), mustEq(t, tbl, "b", 7)},
		{mustEq(t, tbl, "b", 3)},
		{mustEq(t, tbl, "id", 9), mustEq(t, tbl, "a", 1)},
	} {
		if _, err := tbl.Select(nil, preds); err != nil {
			t.Fatal(err)
		}
	}
	for _, rel := range []float64{0, 0.3} {
		for _, beta := range []float64{0, 1e-9} {
			rec, err := tbl.RecommendLayout(PlacementOptions{RelativeBudget: rel, Beta: beta})
			if err != nil {
				t.Fatal(err)
			}
			adv, err := tbl.Advise(AdvisorQuery{RelativeBudget: rel, Beta: beta})
			if err != nil {
				t.Fatal(err)
			}
			if adv.ObservedColumns != 0 {
				t.Fatalf("advisor overlaid %d observed columns; the check needs static estimates", adv.ObservedColumns)
			}
			if !slices.Equal(rec.InDRAM, adv.Recommended.InDRAM) ||
				math.Abs(rec.EstimatedCost-adv.Recommended.ModeledCost) > 1e-9 {
				t.Errorf("w=%g beta=%g: RecommendLayout %v (cost %g), Advise %v (cost %g)", rel, beta,
					rec.InDRAM, rec.EstimatedCost, adv.Recommended.InDRAM, adv.Recommended.ModeledCost)
			}
		}
	}
}

// TestGlobalLayoutOneExtraction: RecommendGlobalLayout reports each
// table's slice of the combined solve against the very workload that
// was solved. With room for everything, every column a table's workload
// filters is DRAM-resident in its layout, so each table runs at relative
// performance 1 — unless the report is priced against a second, later
// extraction that already holds a query on a column the solve had to
// treat as never filtered.
func TestGlobalLayoutOneExtraction(t *testing.T) {
	db, err := Open(Config{Device: "3D XPoint"})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const columns = 192
	fields := make([]Field, columns)
	row := make([]Value, columns)
	for c := range fields {
		fields[c] = Field{Name: fmt.Sprintf("c%03d", c), Type: Int64Type}
		row[c] = Int(int64(c))
	}
	tbl, err := db.CreateTable("wide", fields)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.BulkLoad([][]Value{row, row}); err != nil {
		t.Fatal(err)
	}
	preds := make([]Predicate, columns)
	for c := range preds {
		preds[c] = mustEq(t, tbl, fields[c].Name, int64(c))
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		// Each Select filters a column no earlier query touched.
		defer wg.Done()
		for c := range preds {
			if _, err := tbl.Select(nil, preds[c:c+1]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for done := false; !done; {
		done = len(tbl.PlanCache().Plans()) == columns
		g, err := db.RecommendGlobalLayout(PlacementOptions{RelativeBudget: 1})
		if err != nil {
			t.Fatal(err)
		}
		var memory int64
		for name, l := range g.PerTable {
			memory += l.Memory
			if l.RelativePerformance != 1 {
				t.Fatalf("%s: relative performance %g under a full budget: its cost %g was priced against a different workload than the one solved",
					name, l.RelativePerformance, l.EstimatedCost)
			}
		}
		if memory != g.Memory {
			t.Fatalf("per-table memory sums to %d, global layout reports %d", memory, g.Memory)
		}
	}
	wg.Wait()
}

// raceEnabled is set by race_test.go in a -race build.
var raceEnabled bool
