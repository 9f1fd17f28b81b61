package metrics

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeHistogramBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("c") != c {
		t.Error("counter lookup is not idempotent")
	}

	g := r.Gauge("g")
	g.Add(3)
	g.Add(2)
	g.Add(-4)
	if g.Value() != 1 || g.Max() != 5 {
		t.Errorf("gauge = %d (max %d), want 1 (max 5)", g.Value(), g.Max())
	}
	g.Set(10)
	if g.Value() != 10 || g.Max() != 10 {
		t.Errorf("gauge after Set = %d (max %d), want 10 (max 10)", g.Value(), g.Max())
	}

	h := r.Histogram("h", []int64{10, 100, 1000})
	for _, v := range []int64{1, 10, 11, 99, 5000} {
		h.Observe(v)
	}
	if h.Count() != 5 || h.Sum() != 5121 {
		t.Errorf("histogram count=%d sum=%d, want 5, 5121", h.Count(), h.Sum())
	}
	snap := r.Snapshot()
	hs := snap.Histograms["h"]
	// Every configured bucket is exported, empty ones included: le=10
	// holds {1,10}, le=100 holds {11,99}, le=1000 nothing, overflow
	// {5000}.
	want := []Bucket{{Le: 10, Count: 2}, {Le: 100, Count: 2}, {Le: 1000, Count: 0}, {Le: -1, Count: 1}}
	if len(hs.Buckets) != len(want) {
		t.Fatalf("buckets = %+v, want %+v", hs.Buckets, want)
	}
	for i := range want {
		if hs.Buckets[i] != want[i] {
			t.Errorf("bucket[%d] = %+v, want %+v", i, hs.Buckets[i], want[i])
		}
	}
}

// TestNilSafety proves the disabled path: a nil registry hands out nil
// instruments and every operation is a silent no-op.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	if c != nil {
		t.Error("nil registry returned non-nil counter")
	}
	c.Inc()
	c.Add(10)
	if c.Value() != 0 {
		t.Error("nil counter has a value")
	}
	g := r.Gauge("x")
	g.Add(1)
	g.Set(2)
	if g.Value() != 0 || g.Max() != 0 {
		t.Error("nil gauge has a value")
	}
	h := r.Histogram("x", IOLatencyBuckets())
	h.Observe(5)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil histogram has observations")
	}
	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Error("nil registry snapshot not empty")
	}
	var tr *Trace
	tr.Op(OperatorTrace{})
	tr.Predicate(PredicateTrace{})
	if tr.String() != "(no trace)" {
		t.Error("nil trace renders content")
	}
}

// TestRegistryConcurrent hammers one shared counter, gauge and
// histogram from 8 goroutines (run under -race in CI) and asserts the
// exact totals — atomicity, not just absence of data races.
func TestRegistryConcurrent(t *testing.T) {
	const (
		goroutines = 8
		perG       = 50_000
	)
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			// Instruments are looked up inside each goroutine to also
			// exercise concurrent registry lookups.
			c := r.Counter("shared.counter")
			g := r.Gauge("shared.gauge")
			h := r.Histogram("shared.hist", []int64{10, 100})
			for j := 0; j < perG; j++ {
				c.Inc()
				g.Add(1)
				h.Observe(int64(j % 150))
				g.Add(-1)
			}
		}(i)
	}
	wg.Wait()
	if got := r.Counter("shared.counter").Value(); got != goroutines*perG {
		t.Errorf("counter = %d, want %d", got, goroutines*perG)
	}
	g := r.Gauge("shared.gauge")
	if g.Value() != 0 {
		t.Errorf("gauge settled at %d, want 0", g.Value())
	}
	if g.Max() < 1 || g.Max() > goroutines {
		t.Errorf("gauge high-watermark %d outside [1, %d]", g.Max(), goroutines)
	}
	h := r.Histogram("shared.hist", nil)
	if h.Count() != goroutines*perG {
		t.Errorf("histogram count = %d, want %d", h.Count(), goroutines*perG)
	}
	// Sum of j%150 over perG iterations, times 8 goroutines.
	var per int64
	for j := 0; j < perG; j++ {
		per += int64(j % 150)
	}
	if h.Sum() != goroutines*per {
		t.Errorf("histogram sum = %d, want %d", h.Sum(), goroutines*per)
	}
	snap := r.Snapshot()
	var bucketTotal int64
	for _, b := range snap.Histograms["shared.hist"].Buckets {
		bucketTotal += b.Count
	}
	if bucketTotal != goroutines*perG {
		t.Errorf("bucket counts sum to %d, want %d", bucketTotal, goroutines*perG)
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1000, 2, 4)
	want := []int64{1000, 2000, 4000, 8000}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", b, want)
		}
	}
	// Degenerate arguments are clamped, not rejected.
	if got := ExpBuckets(0, 0, 0); len(got) != 1 || got[0] != 1 {
		t.Errorf("clamped ExpBuckets = %v", got)
	}
}

func TestSnapshotJSONRoundtrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("a.b").Add(7)
	r.Gauge("g").Set(3)
	r.Histogram("h", []int64{50}).Observe(10)
	data, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["a.b"] != 7 || back.Gauges["g"].Value != 3 || back.Histograms["h"].Count != 1 {
		t.Errorf("roundtrip lost data: %+v", back)
	}
}

func TestRenderStable(t *testing.T) {
	r := NewRegistry()
	r.Counter("z.last").Inc()
	r.Counter("a.first").Add(2)
	r.Gauge("mid").Set(4)
	out := r.Snapshot().Render()
	if !strings.Contains(out, "a.first") || !strings.Contains(out, "z.last") {
		t.Fatalf("render missing counters:\n%s", out)
	}
	if strings.Index(out, "a.first") > strings.Index(out, "z.last") {
		t.Error("render not sorted")
	}
	if (Snapshot{}).Render() != "(no metrics recorded)\n" {
		t.Error("empty snapshot render")
	}
}

func TestTraceString(t *testing.T) {
	tr := &Trace{Table: "orders", Parallelism: 4, ProbeThreshold: 0.0001, Device: "CSSD"}
	tr.Predicate(PredicateTrace{Column: 1, Op: "eq", Path: "mrc", EstimatedSelectivity: 0.01})
	tr.Op(OperatorTrace{Name: "scan", Partition: "main", Path: "mrc", Column: 1, RowsIn: 100, RowsOut: 10})
	tr.Op(OperatorTrace{Name: "probe", Partition: "main", Path: "sscg", Column: 2,
		SwitchedToProbe: true, CandidateFraction: 0.00005, RowsIn: 10, RowsOut: 3})
	tr.DRAMNs = 500
	tr.WorkerMorsels = []int64{3, 2, 1}
	out := tr.String()
	for _, want := range []string{"orders", "switched-to-probe", "CSSD", "filter order", "worker morsels: [3 2 1]"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace render missing %q:\n%s", want, out)
		}
	}
}
