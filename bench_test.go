package tierdb

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (delegating to internal/experiments, which prints the same
// rows the paper reports), micro-benchmarks of the hot paths, and
// ablation benchmarks for the design choices called out in DESIGN.md.
// Ablations report their quality metric (cost or slowdown ratios) via
// b.ReportMetric.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"tierdb/internal/core"
	"tierdb/internal/device"
	"tierdb/internal/dsm"
	"tierdb/internal/exec"
	"tierdb/internal/experiments"
	"tierdb/internal/metrics"
	"tierdb/internal/schema"
	"tierdb/internal/solver"
	"tierdb/internal/sscg"
	"tierdb/internal/storage"
	"tierdb/internal/table"
	"tierdb/internal/tpcc"
	"tierdb/internal/value"
)

// benchReport runs one experiment per iteration; the report itself is
// the artifact (use cmd/benchrunner to print it).
func benchReport(b *testing.B, f func(int64) (*experiments.Report, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r, err := f(42)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Rows) == 0 {
			b.Fatal("empty report")
		}
	}
}

// --- Paper tables and figures -------------------------------------------

func BenchmarkTable1ERPFilterSkew(b *testing.B) { benchReport(b, experiments.Table1) }
func BenchmarkFig3BSEGFrontier(b *testing.B)    { benchReport(b, experiments.Fig3) }
func BenchmarkFig4HeuristicGap(b *testing.B)    { benchReport(b, experiments.Fig4) }
func BenchmarkFig5InteractionGap(b *testing.B)  { benchReport(b, experiments.Fig5) }
func BenchmarkFig6SolutionStructure(b *testing.B) {
	benchReport(b, experiments.Fig6)
}
func BenchmarkTable2SolverScalability(b *testing.B) {
	benchReport(b, func(int64) (*experiments.Report, error) { return experiments.Table2(false) })
}
func BenchmarkTable3EndToEnd(b *testing.B) { benchReport(b, experiments.Table3) }
func BenchmarkFig7ReconstructionSweep(b *testing.B) {
	benchReport(b, experiments.Fig7)
}
func BenchmarkFig8TableShapes(b *testing.B) { benchReport(b, experiments.Fig8) }
func BenchmarkFig9aScanning(b *testing.B)   { benchReport(b, experiments.Fig9a) }
func BenchmarkFig9bProbing(b *testing.B)    { benchReport(b, experiments.Fig9b) }
func BenchmarkTable4Slowdowns(b *testing.B) { benchReport(b, experiments.Table4) }

// --- Micro-benchmarks of the hot paths -----------------------------------

func benchWorkload(b *testing.B, n, q int) *core.Workload {
	b.Helper()
	w, err := core.Example1(core.Example1Config{Columns: n, Queries: q, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	return w
}

func BenchmarkCoefficients(b *testing.B) {
	w := benchWorkload(b, 1000, 10000)
	p := core.DefaultCostParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Coefficients(w, p)
	}
}

func BenchmarkExplicitSolve(b *testing.B) {
	w := benchWorkload(b, 1000, 10000)
	p := core.DefaultCostParams()
	budget := int64(0.5 * float64(w.TotalSize()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.ExplicitForBudget(w, p, budget, nil, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKnapsackSolve(b *testing.B) {
	w := benchWorkload(b, 500, 5000)
	p := core.DefaultCostParams()
	coeff := core.Coefficients(w, p)
	items := make([]solver.Item, len(w.Columns))
	for i, c := range w.Columns {
		items[i] = solver.Item{Value: -float64(c.Size) * coeff[i], Weight: c.Size}
	}
	budget := int64(0.5 * float64(w.TotalSize()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solver.Knapsack01Opts(items, budget, solver.Options{RelativeGap: 1e-6}); err != nil {
			b.Fatal(err)
		}
	}
}

func benchTable(b *testing.B, rows int, layout []bool) (*table.Table, *exec.Executor, *storage.Clock) {
	b.Helper()
	s := schema.MustNew([]schema.Field{
		{Name: "id", Type: value.Int64},
		{Name: "a", Type: value.Int64},
		{Name: "b", Type: value.Int64},
		{Name: "payload", Type: value.String, Width: 32},
	})
	clock := &storage.Clock{}
	store := storage.NewTimedStore(storage.NewMemStore(), device.XPoint, clock)
	tbl, err := table.New("bench", s, table.Options{Store: store})
	if err != nil {
		b.Fatal(err)
	}
	data := make([][]value.Value, rows)
	for i := range data {
		data[i] = []value.Value{
			value.NewInt(int64(i)),
			value.NewInt(int64(i % 100)),
			value.NewInt(int64(i % 1000)),
			value.NewString(fmt.Sprintf("payload-%08d", i)),
		}
	}
	if err := tbl.BulkAppend(data); err != nil {
		b.Fatal(err)
	}
	if layout == nil {
		layout = []bool{true, true, true, true}
	}
	if err := tbl.ApplyLayout(layout); err != nil {
		b.Fatal(err)
	}
	return tbl, exec.New(tbl, exec.Options{Clock: clock}), clock
}

func BenchmarkMRCScanEqual(b *testing.B) {
	tbl, e, _ := benchTable(b, 100000, nil)
	q := exec.Query{Predicates: []exec.Predicate{{Column: 1, Op: exec.Eq, Value: value.NewInt(42)}}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(q, nil); err != nil {
			b.Fatal(err)
		}
	}
	_ = tbl
}

// BenchmarkParallelMRCScan measures the morsel-driven executor on a
// 1 M row MRC range scan at increasing worker counts. The headline
// metrics are on the virtual clock (the repo's "measured" runtime):
// modeled_ns per scan and the modeled speedup over Parallelism=1,
// which reaches ~4x at 4 workers where the DRAM bandwidth model
// saturates.
func BenchmarkParallelMRCScan(b *testing.B) {
	tbl, _, clock := benchTable(b, 1_000_000, nil)
	q := exec.Query{Predicates: []exec.Predicate{
		{Column: 2, Op: exec.Between, Value: value.NewInt(100), Hi: value.NewInt(500)},
	}}
	serial := exec.New(tbl, exec.Options{Clock: clock, Parallelism: 1})
	clock.Reset()
	if _, err := serial.Run(q, nil); err != nil {
		b.Fatal(err)
	}
	base := clock.Elapsed()
	for _, par := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("parallelism=%d", par), func(b *testing.B) {
			e := exec.New(tbl, exec.Options{Clock: clock, Parallelism: par})
			var modeled time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				clock.Reset()
				if _, err := e.Run(q, nil); err != nil {
					b.Fatal(err)
				}
				modeled = clock.Elapsed()
			}
			b.ReportMetric(float64(modeled.Nanoseconds()), "modeled_ns")
			b.ReportMetric(float64(base)/float64(modeled), "modeled_speedup_x")
		})
	}
}

// BenchmarkParallelMRCProjection measures a query of two regions whose
// second is large: a 1 M row MRC range scan fused with an MRC probe
// (200 k rows qualify), then the materialization of two projected
// columns of every qualifying row, in wall-clock ns per query at
// increasing worker counts.
func BenchmarkParallelMRCProjection(b *testing.B) {
	tbl, _, clock := benchTable(b, 1_000_000, nil)
	q := exec.Query{
		Predicates: []exec.Predicate{
			{Column: 2, Op: exec.Between, Value: value.NewInt(100), Hi: value.NewInt(499)},
			{Column: 1, Op: exec.Between, Value: value.NewInt(0), Hi: value.NewInt(49)},
		},
		Project: []int{0, 1},
	}
	for _, par := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("parallelism=%d", par), func(b *testing.B) {
			e := exec.New(tbl, exec.Options{Clock: clock, Parallelism: par})
			for i := 0; i < b.N; i++ {
				if res, err := e.Run(q, nil); err != nil || len(res.IDs) != 200_000 {
					b.Fatalf("%d rows, %v", len(res.IDs), err)
				}
			}
		})
	}
}

// BenchmarkMetricsOverhead measures what the observability layer costs
// on the hottest path — the 1 M row parallel MRC range scan of
// BenchmarkParallelMRCScan — in three configurations: metrics disabled
// (nil registry: every instrument is a nil no-op), metrics enabled
// (atomic counters on the batched operator paths), and enabled with a
// per-query trace. The acceptance budget is <5% wall-clock overhead
// for the enabled case and ~0 for disabled; compare the ns/op of the
// sub-benchmarks.
func BenchmarkMetricsOverhead(b *testing.B) {
	tbl, _, clock := benchTable(b, 1_000_000, nil)
	q := exec.Query{Predicates: []exec.Predicate{
		{Column: 2, Op: exec.Between, Value: value.NewInt(100), Hi: value.NewInt(500)},
	}}
	b.Run("disabled", func(b *testing.B) {
		e := exec.New(tbl, exec.Options{Clock: clock, Parallelism: 4})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.Run(q, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("enabled", func(b *testing.B) {
		e := exec.New(tbl, exec.Options{Clock: clock, Parallelism: 4, Registry: metrics.NewRegistry()})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.Run(q, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("enabled+trace", func(b *testing.B) {
		e := exec.New(tbl, exec.Options{Clock: clock, Parallelism: 4, Registry: metrics.NewRegistry()})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := e.RunTracedCtx(context.Background(), q, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkConjunctiveQuery(b *testing.B) {
	_, e, _ := benchTable(b, 100000, nil)
	q := exec.Query{Predicates: []exec.Predicate{
		{Column: 2, Op: exec.Eq, Value: value.NewInt(77)},
		{Column: 1, Op: exec.Between, Value: value.NewInt(0), Hi: value.NewInt(50)},
	}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(q, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTupleReconstructionDRAM(b *testing.B) {
	_, e, _ := benchTable(b, 100000, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Reconstruct(uint64(i % 100000)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTupleReconstructionTiered(b *testing.B) {
	_, e, _ := benchTable(b, 100000, []bool{true, false, false, false})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Reconstruct(uint64(i % 100000)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeltaInsert(b *testing.B) {
	tbl, _, _ := benchTable(b, 10, nil)
	mgr := tbl.Manager()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := mgr.Begin()
		err := tbl.Insert(tx, []value.Value{
			value.NewInt(int64(i)),
			value.NewInt(int64(i % 100)),
			value.NewInt(int64(i % 1000)),
			value.NewString("inserted-payload-xx"),
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := mgr.Commit(tx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMerge(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tbl, _, _ := benchTable(b, 20000, []bool{true, false, false, false})
		mgr := tbl.Manager()
		for j := 0; j < 1000; j++ {
			tx := mgr.Begin()
			if err := tbl.Insert(tx, []value.Value{
				value.NewInt(int64(100000 + j)), value.NewInt(1), value.NewInt(2), value.NewString("d"),
			}); err != nil {
				b.Fatal(err)
			}
			if _, err := mgr.Commit(tx); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if err := tbl.Merge(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (DESIGN.md section 5) --------------------------------------

// BenchmarkAblationSelectionInteraction quantifies the paper's central
// modeling claim: ignoring selection interaction (frequency counting,
// H1) costs real performance. Reports the cost ratio H1/ILP as
// "costx".
func BenchmarkAblationSelectionInteraction(b *testing.B) {
	w := benchWorkload(b, 50, 500)
	p := core.DefaultCostParams()
	budget := int64(0.5 * float64(w.TotalSize()))
	var ratio float64
	for i := 0; i < b.N; i++ {
		opt, err := core.OptimalILP(w, p, budget)
		if err != nil {
			b.Fatal(err)
		}
		h1, err := core.SolveHeuristic(w, p, budget, core.MethodFrequency)
		if err != nil {
			b.Fatal(err)
		}
		ratio = h1.Cost / opt.Cost
	}
	b.ReportMetric(ratio, "costx")
}

// BenchmarkAblationProbeThreshold sweeps the scan-to-probe switch point
// and reports the modeled query time at each setting for a selective
// conjunction on a tiered column. With a threshold of 1 the executor
// always probes the few candidates (fast here); the paper's absolute
// default (0.01 % of the tuple count) assumes production-scale tables —
// at this scaled-down row count it falls below the candidate fraction
// and forces a full SSCG scan, which is exactly the trade-off the
// ablation quantifies.
func BenchmarkAblationProbeThreshold(b *testing.B) {
	for _, threshold := range []float64{1.0, 0.01, exec.DefaultProbeThreshold} {
		b.Run(fmt.Sprintf("threshold=%g", threshold), func(b *testing.B) {
			clock := &storage.Clock{}
			store := storage.NewTimedStore(storage.NewMemStore(), device.XPoint, clock)
			tbl, err := tpcc.BuildOrderLine(tpcc.Config{Warehouses: 4, OrdersPerDistrict: 40},
				table.Options{Store: store}, tpcc.LayoutForBudget(0.2))
			if err != nil {
				b.Fatal(err)
			}
			e := exec.New(tbl, exec.Options{Clock: clock, ProbeThreshold: threshold})
			q := exec.Query{Predicates: []exec.Predicate{
				{Column: tpcc.OLWarehouseID, Op: exec.Eq, Value: value.NewInt(1)},
				{Column: tpcc.OLDistrictID, Op: exec.Eq, Value: value.NewInt(1)},
				{Column: tpcc.OLOrderID, Op: exec.Eq, Value: value.NewInt(5)},
				{Column: tpcc.OLQuantity, Op: exec.Between, Value: value.NewInt(1), Hi: value.NewInt(5)},
			}}
			var virtual time.Duration
			for i := 0; i < b.N; i++ {
				clock.Reset()
				if _, err := e.Run(q, nil); err != nil {
					b.Fatal(err)
				}
				virtual = clock.Elapsed()
			}
			b.ReportMetric(float64(virtual.Microseconds()), "virtual_us")
		})
	}
}

// BenchmarkAblationSSCGRowFormat compares the SSCG's row-oriented
// uncompressed format against the "disastrous" alternative the paper
// motivates against: a disk-resident dictionary-encoded column store,
// where a full-width reconstruction reads two pages per attribute
// (value vector + dictionary). Reports the modeled page-read ratio.
func BenchmarkAblationSSCGRowFormat(b *testing.B) {
	const attrs = 100
	var ratio float64
	for i := 0; i < b.N; i++ {
		// SSCG: one page for the whole 800-byte row.
		sscgPages := 1
		// Disk-resident columnar: 2 page accesses per attribute.
		columnarPages := 2 * attrs
		ratio = float64(columnarPages) / float64(sscgPages)
	}
	b.ReportMetric(ratio, "pagereads_x")
	b.ReportMetric(float64(device.XPoint.RandomReadTime(int64(2*attrs), 1).Microseconds()), "columnar_us")
	b.ReportMetric(float64(device.XPoint.RandomReadTime(1, 1).Microseconds()), "sscg_us")
}

// BenchmarkAblationCacheSize sweeps the AMM page cache size under a
// zipfian tuple-reconstruction workload and reports the hit rate.
func BenchmarkAblationCacheSize(b *testing.B) {
	for _, fraction := range []float64{0.001, 0.02, 0.1} {
		b.Run(fmt.Sprintf("cache=%g", fraction), func(b *testing.B) {
			var hitRate float64
			for i := 0; i < b.N; i++ {
				tbl, e, _, cacheStats, err := buildCachedORDERLINE(fraction)
				if err != nil {
					b.Fatal(err)
				}
				rng := newZipf(tbl.MainRows())
				for j := 0; j < 5000; j++ {
					if _, err := e.Reconstruct(uint64(rng())); err != nil {
						b.Fatal(err)
					}
				}
				hitRate = cacheStats()
			}
			b.ReportMetric(hitRate, "hitrate")
		})
	}
}

// BenchmarkAblationFillingHeuristic reports the cost gap between the
// pure explicit solution (largest Pareto prefix) and the filling
// variant of Remark 2 at a tight budget.
func BenchmarkAblationFillingHeuristic(b *testing.B) {
	w := benchWorkload(b, 50, 500)
	p := core.DefaultCostParams()
	budget := int64(0.25 * float64(w.TotalSize()))
	var gap float64
	for i := 0; i < b.N; i++ {
		explicit, err := core.ExplicitForBudget(w, p, budget, nil, 0)
		if err != nil {
			b.Fatal(err)
		}
		filling, err := core.FillingForBudget(w, p, budget, nil, 0)
		if err != nil {
			b.Fatal(err)
		}
		gap = explicit.Cost / filling.Cost
	}
	b.ReportMetric(gap, "explicit_vs_filling_costx")
}

// BenchmarkAblationSSCGVsDSM compares the paper's chosen row-oriented
// SSCG against the rejected alternative, a disk-resident decomposed
// (columnar, DSM) group, with both real implementations on the same
// modeled device: DSM scans one attribute with ~W times fewer page
// reads, but pays W page reads per full-width tuple reconstruction —
// the trade-off behind the paper's "simple model is superior" decision
// (Sections I-B, II-A).
func BenchmarkAblationSSCGVsDSM(b *testing.B) {
	const width = 20
	fields := make([]schema.Field, width)
	for i := range fields {
		fields[i] = schema.Field{Name: fmt.Sprintf("c%d", i), Type: value.Int64}
	}
	rows := make([][]value.Value, 20000)
	for r := range rows {
		row := make([]value.Value, width)
		for c := range row {
			row[c] = value.NewInt(int64(r*31 + c))
		}
		rows[r] = row
	}

	rowClock := &storage.Clock{}
	rowGroup, err := sscg.Build(fields, rows,
		storage.NewTimedStore(storage.NewMemStore(), device.XPoint, rowClock), nil)
	if err != nil {
		b.Fatal(err)
	}
	dsmClock := &storage.Clock{}
	dsmGroup, err := dsm.Build(fields, rows,
		storage.NewTimedStore(storage.NewMemStore(), device.XPoint, dsmClock), nil)
	if err != nil {
		b.Fatal(err)
	}

	pred := func(v value.Value) bool { return v.Int()%997 == 0 }
	var scanRatio, recRatio float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rowClock.Reset()
		if _, err := rowGroup.Scan(5, pred, nil, nil); err != nil {
			b.Fatal(err)
		}
		sscgScan := rowClock.Reads()
		dsmClock.Reset()
		if _, err := dsmGroup.Scan(5, pred, nil, nil); err != nil {
			b.Fatal(err)
		}
		dsmScan := dsmClock.Reads()

		rowClock.Reset()
		if _, err := rowGroup.ReadRow(12345); err != nil {
			b.Fatal(err)
		}
		sscgRec := rowClock.Reads()
		dsmClock.Reset()
		if _, err := dsmGroup.ReadRow(12345); err != nil {
			b.Fatal(err)
		}
		dsmRec := dsmClock.Reads()

		scanRatio = float64(sscgScan) / float64(dsmScan)
		recRatio = float64(dsmRec) / float64(sscgRec)
	}
	b.ReportMetric(scanRatio, "scan_sscg_vs_dsm_x")
	b.ReportMetric(recRatio, "reconstruct_dsm_vs_sscg_x")
}
