package exec

import (
	"math"
	"testing"
	"time"

	"tierdb/internal/metrics"
	"tierdb/internal/value"
)

// TestObservedSelectivityCapture runs the same predicate through the
// serial and the parallel executor and checks both feed the table's
// EWMA with the true qualifying fraction (a = id%10 ⇒ 1/10).
func TestObservedSelectivityCapture(t *testing.T) {
	for _, parallelism := range []int{1, 4} {
		tbl, clock := newTable(t, 40_000, nil)
		reg := metrics.NewRegistry()
		e := New(tbl, Options{Clock: clock, Parallelism: parallelism, Registry: reg})
		q := Query{Predicates: []Predicate{
			{Column: 1, Op: Eq, Value: value.NewInt(3)},
		}}
		for i := 0; i < 5; i++ {
			if _, err := e.Run(q, nil); err != nil {
				t.Fatal(err)
			}
		}
		sel, samples := tbl.ObservedSelectivity(1)
		if samples != 5 {
			t.Errorf("parallelism=%d: %d samples, want 5", parallelism, samples)
		}
		if math.Abs(sel-0.1) > 1e-9 {
			t.Errorf("parallelism=%d: observed selectivity %g, want 0.1", parallelism, sel)
		}
		if n := reg.Snapshot().Counters["selectivity.samples"]; n != 5 {
			t.Errorf("parallelism=%d: selectivity.samples = %d, want 5", parallelism, n)
		}
		// The static estimate for a=id%10 is also 1/10, so the
		// misestimate histogram must have recorded near-zero drift.
		h := reg.Snapshot().Histograms["selectivity.misestimate"]
		if h.Count != 5 {
			t.Errorf("parallelism=%d: misestimate count %d, want 5", parallelism, h.Count)
		}
		if h.Sum != 0 {
			t.Errorf("parallelism=%d: misestimate sum %d, want 0 (perfect estimate)", parallelism, h.Sum)
		}
	}
}

// TestObservedSelectivityConditionalFractions checks what each
// predicate of a conjunction records. The optimizer runs b = id%100
// first (more selective): a full scan observing its marginal fraction
// 1/100. The a = id%10 predicate then probes b's candidates — and since
// b=13 implies a=3 (the columns are correlated), its conditional
// fraction is 1, exactly the drift the misestimate histogram is there
// to expose (the independence estimate says 1/10).
func TestObservedSelectivityConditionalFractions(t *testing.T) {
	tbl, clock := newTable(t, 10_000, []bool{true, true, true, false})
	e := New(tbl, Options{Clock: clock})
	q := Query{Predicates: []Predicate{
		{Column: 1, Op: Eq, Value: value.NewInt(3)},
		{Column: 2, Op: Eq, Value: value.NewInt(13)},
	}}
	if _, err := e.Run(q, nil); err != nil {
		t.Fatal(err)
	}
	if sel, n := tbl.ObservedSelectivity(2); n != 1 || math.Abs(sel-0.01) > 1e-9 {
		t.Errorf("col b: sel=%g samples=%d, want marginal 0.01 with 1 sample", sel, n)
	}
	if sel, n := tbl.ObservedSelectivity(1); n != 1 || math.Abs(sel-1) > 1e-9 {
		t.Errorf("col a: sel=%g samples=%d, want conditional 1 with 1 sample", sel, n)
	}
}

// TestTraceRingCapture checks Run (not just RunTracedCtx) captures into
// the recent ring, and that slow queries additionally enter the slow
// ring without ever exceeding its bound.
func TestTraceRingCapture(t *testing.T) {
	tbl, clock := newTable(t, 5_000, nil)
	recent := metrics.NewTraceRing(8)
	slow := metrics.NewTraceRing(4)
	reg := metrics.NewRegistry()
	e := New(tbl, Options{
		Clock:              clock,
		Registry:           reg,
		TraceRing:          recent,
		SlowRing:           slow,
		SlowQueryThreshold: time.Nanosecond, // everything is slow
	})
	q := Query{Predicates: []Predicate{{Column: 1, Op: Eq, Value: value.NewInt(3)}}}
	const runs = 10
	for i := 0; i < runs; i++ {
		if _, err := e.Run(q, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := recent.Added(); got != runs {
		t.Errorf("recent ring saw %d adds, want %d", got, runs)
	}
	if got := len(recent.Snapshot()); got != 8 {
		t.Errorf("recent ring holds %d, want its bound of 8", got)
	}
	if got := len(slow.Snapshot()); got != 4 {
		t.Errorf("slow ring holds %d, want its bound of 4", got)
	}
	for _, entry := range recent.Snapshot() {
		if entry.Trace == nil || entry.Trace.Table != "t" {
			t.Fatalf("ring entry has no trace: %+v", entry)
		}
		if entry.WallNs <= 0 {
			t.Errorf("entry without wall time: %+v", entry)
		}
	}
	snap := reg.Snapshot()
	if snap.Counters["exec.slow_queries"] != runs {
		t.Errorf("exec.slow_queries = %d, want %d", snap.Counters["exec.slow_queries"], runs)
	}
	if snap.Counters["obs.traces_captured"] != runs {
		t.Errorf("obs.traces_captured = %d, want %d", snap.Counters["obs.traces_captured"], runs)
	}
	if snap.Histograms["exec.wall_ns"].Count != runs {
		t.Errorf("exec.wall_ns count = %d, want %d", snap.Histograms["exec.wall_ns"].Count, runs)
	}
}

// TestObservedSelectivityUnderZonePruning pins what a first step records
// when zones are skipped, on the clustered id column (20 000 rows, five
// zones). Alone, id in [0, 999] admits only zone 0 and every rejected
// zone holds none of its matches, so it records its fraction over the
// whole main: 1000/20 000, not the 1000/4096 of the rows it scanned.
// Behind a = 3, whose zones admit everything, id in [0, 4999] rejects
// zones 2-4 that a = 3 admits, so a's matches over the admitted rows are
// not its matches over the main and a records no sample; id, probed,
// still records its conditional fraction. At both worker counts.
func TestObservedSelectivityUnderZonePruning(t *testing.T) {
	for _, par := range []int{1, 2} {
		tbl, _ := newTable(t, 20_000, nil)
		e := New(tbl, Options{Parallelism: par, MorselRows: 1024})
		alone := Query{Predicates: []Predicate{{Column: 0, Op: Between, Value: value.NewInt(0), Hi: value.NewInt(999)}}}
		if res, err := e.Run(alone, nil); err != nil || len(res.IDs) != 1000 {
			t.Fatalf("Parallelism %d: %v, %v", par, res, err)
		}
		if sel, n := tbl.ObservedSelectivity(0); n != 1 || math.Abs(sel-0.05) > 1e-9 {
			t.Errorf("Parallelism %d: id alone observed %g over %d samples, want 0.05 over 1", par, sel, n)
		}
		behind := Query{Predicates: []Predicate{
			{Column: 0, Op: Between, Value: value.NewInt(0), Hi: value.NewInt(4999)},
			{Column: 1, Op: Eq, Value: value.NewInt(3)},
		}}
		if res, err := e.Run(behind, nil); err != nil || len(res.IDs) != 500 {
			t.Fatalf("Parallelism %d: %v, %v", par, res, err)
		}
		if _, n := tbl.ObservedSelectivity(1); n != 0 {
			t.Errorf("Parallelism %d: a = 3 recorded %d samples over zones id rejected, want none", par, n)
		}
		if sel, n := tbl.ObservedSelectivity(0); n != 2 || sel <= 0.05 {
			t.Errorf("Parallelism %d: id probed recorded %g over %d samples, want its conditional fraction as a second sample", par, sel, n)
		}
	}
}
