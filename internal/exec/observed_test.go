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
