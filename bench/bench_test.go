package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"testing"
	"time"

	"tierdb/internal/tpcc"
	"tierdb/internal/value"
)

func TestPercentileRules(t *testing.T) {
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("a percentile of no samples was reported")
	}
	seq := func(n int) []int64 {
		s := make([]int64, n)
		for i := range s {
			s[i] = int64(i + 1)
		}
		return s
	}
	if v, ok := percentile(seq(1), 0.5); !ok || v != 1 {
		t.Errorf("median of one sample = %d, %v", v, ok)
	}
	if v, ok := percentile(seq(100), 0.5); !ok || v != 50 {
		t.Errorf("nearest-rank median of 1..100 = %d, %v; want 50", v, ok)
	}
	// p95 needs ten samples beyond its rank: 199 samples leave nine.
	if _, ok := percentile(seq(199), 0.95); ok {
		t.Error("p95 of 199 samples was reported")
	}
	if v, ok := percentile(seq(200), 0.95); !ok || v != 190 {
		t.Errorf("p95 of 1..200 = %d, %v; want 190", v, ok)
	}
	if _, ok := percentile(seq(999), 0.99); ok {
		t.Error("p99 of 999 samples was reported")
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles of three = %v %v %v", q1, q2, q3)
	}
}

func TestOpenLoopDueTimeCorrection(t *testing.T) {
	t0 := time.Unix(100, 0)
	due := t0.Add(10 * time.Millisecond)
	// The previous reply came in after this request fell due: the wait
	// is the system's, so latency counts from the due time.
	from, lag := latencyStart(due, t0.Add(14*time.Millisecond), t0.Add(14*time.Millisecond))
	if !from.Equal(due) || lag != 0 {
		t.Errorf("blocked worker: from %v lag %v", from.Sub(t0), lag)
	}
	// The worker was idle at the due time and its timer fired 1 ms
	// late: that is the generator's lateness, reported apart.
	sent := due.Add(time.Millisecond)
	from, lag = latencyStart(due, t0.Add(3*time.Millisecond), sent)
	if !from.Equal(sent) || lag != time.Millisecond {
		t.Errorf("idle worker: from %v lag %v", from.Sub(t0), lag)
	}
}

func TestWindowMetricsCoverTheWholeWindow(t *testing.T) {
	r := &result{Metrics: map[string]metric{}}
	// 300 reads of 1..300 us, the slowest of them a stall's worth, and 100
	// writes, in a window of 2 s that cost 1 s of CPU.
	reads := make([]int64, 300)
	for i := range reads {
		reads[i] = int64(300-i) * 1000
	}
	writes := make([]int64, 100)
	for i := range writes {
		writes[i] = int64(i+1) * 2000
	}
	windowMetrics(r, spent{wall: 2 * time.Second, cpu: time.Second}, reads, writes)
	want := map[string]metric{
		"ops_per_s":     {Value: 200, Unit: "1/s"},
		"cpu_us_per_op": {Value: 2500, Unit: "us"},
		"read_p50_us":   {Value: 150, Unit: "us", N: 300},
		"read_p95_us":   {Value: 285, Unit: "us", N: 300},
		"write_p50_us":  {Value: 100, Unit: "us", N: 100},
		// write_p95_us: 100 samples leave five beyond the rank, not ten.
	}
	if !reflect.DeepEqual(r.Metrics, want) {
		t.Errorf("got  %+v\nwant %+v", r.Metrics, want)
	}
}

func TestOfferedRate(t *testing.T) {
	for _, wl := range workloads {
		want := 0.0
		if wl.Name == "htap_mixed" {
			want = 1040
		}
		if got := wl.offered(); got != want {
			t.Errorf("%s offers %v ops/s, want %v", wl.Name, got, want)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "child", Start: 20, End: 50},  // overlaps the first: counted once
		{ID: 4, Parent: 1, Name: "child", Start: 90, End: 120}, // clipped to the parent
		{ID: 5, Parent: 3, Name: "leaf", Start: 25, End: 35},
	}
	got := map[string]selfRow{}
	for _, r := range selfTimes(spans) {
		got[r.Name] = r
	}
	// parent: 100 - ([10,50] + [90,100]) = 50
	if r := got["parent"]; r.TotalNs != 100 || r.SelfNs != 50 {
		t.Errorf("parent total %d self %d, want 100 and 50", r.TotalNs, r.SelfNs)
	}
	// children: 20 + 30 + 30 in all; the second loses 10 to its leaf.
	if r := got["child"]; r.Spans != 3 || r.TotalNs != 80 || r.SelfNs != 70 {
		t.Errorf("child %+v, want 3 spans, total 80, self 70", r)
	}
	if r := got["leaf"]; r.SelfNs != 10 {
		t.Errorf("leaf self %d, want 10", r.SelfNs)
	}
}

func TestSpanLogParentsAndTraces(t *testing.T) {
	log := newSpanLog()
	a, b := log.buffer(), log.buffer()
	t0 := time.Now()
	root := a.open("root", 0, t0)
	kid := a.add("kid", root, t0, t0.Add(time.Millisecond), 3)
	a.finish(root, t0.Add(2*time.Millisecond))
	other := b.add("other", 0, t0, t0, 1)
	all := log.all()
	if len(all) != 3 || root == other || kid == other {
		t.Fatalf("spans %+v", all)
	}
	if all[1].Trace != all[0].Trace || all[1].Parent != root || all[2].Trace == all[0].Trace {
		t.Errorf("trace ids: %+v", all)
	}
	if all[0].End-all[0].Start != int64(2*time.Millisecond) {
		t.Errorf("finish did not set the root's end: %+v", all[0])
	}
}

func TestOpStreamsAreDeterministic(t *testing.T) {
	ds := generate(smokeScale, 1)
	for _, wl := range workloads {
		for i, spec := range wl.Workers {
			a := genStream(ds, spec.Mix, 7, i, 2000)
			if b := genStream(ds, spec.Mix, 7, i, 2000); !reflect.DeepEqual(a, b) {
				t.Errorf("%s worker %d: same seed, different streams", wl.Name, i)
			}
			if b := genStream(ds, spec.Mix, 8, i, 2000); reflect.DeepEqual(a, b) {
				t.Errorf("%s worker %d: different seeds, same stream", wl.Name, i)
			}
			if b := genStream(ds, spec.Mix, 7, i+1, 2000); reflect.DeepEqual(a, b) {
				t.Errorf("%s worker %d: another worker got the same stream", wl.Name, i)
			}
			if b := genStream(ds, spec.Mix, 7, i, 3000); !reflect.DeepEqual(a, b[:2000]) {
				t.Errorf("%s worker %d: a longer stream begins differently", wl.Name, i)
			}
		}
	}
	// A stream holds what the worker can send: an open loop's schedule, a
	// closed loop's highest conceivable rate.
	if n := (workerSpec{Rate: 1000}).streamLen(10 * time.Second); n < 10001 || n > 10100 {
		t.Errorf("open loop at 1000/s for 10 s: %d ops", n)
	}
	if n := (workerSpec{}).streamLen(10 * time.Second); n < 10*closedLoopMaxRate {
		t.Errorf("closed loop for 10 s: %d ops", n)
	}
	// Inserted orders lie above the loaded range and differ per worker.
	seen := map[[3]int32]int{}
	for w := 0; w < 2; w++ {
		for _, o := range genStream(ds, mix{InsertFrac: 1}, 7, w, 5000) {
			if int(o.o) <= ds.sc.OrdersPerDistrict {
				t.Fatalf("insert into loaded order %d", o.o)
			}
			key := [3]int32{o.o, o.d, 0}
			if prev, ok := seen[key]; ok && prev != w {
				t.Fatalf("workers %d and %d both insert into order %v", prev, w, key)
			}
			seen[key] = w
		}
	}
}

func TestOracleAgreesWithGeneratedRows(t *testing.T) {
	ds := generate(smokeScale, 3)
	project := []int{tpcc.OLItemID, tpcc.OLAmount, tpcc.OLDistInfo}
	total := 0
	for k := 0; k < ds.orders(); k++ {
		var o op
		o.kind = opLookup
		o.setOrder(ds, k)
		want := ds.expect(&o, project)
		total += want.count
		// The reply side of the oracle, fed the generated rows of the
		// order, must summarize to the same answer.
		var rows [][]value.Value
		for row := int(ds.orderStart[k]); row < int(ds.orderStart[k+1]); row++ {
			r := ds.rows[row]
			rows = append(rows, []value.Value{r[tpcc.OLItemID], r[tpcc.OLAmount], r[tpcc.OLDistInfo]})
		}
		if m := mismatch(summarize(len(rows), rows, project), want); m != "" {
			t.Fatalf("order %d: %s", k, m)
		}
	}
	if total != ds.n {
		t.Errorf("lookups over all orders cover %d rows of %d", total, ds.n)
	}
	// A wrong row must not pass.
	var o op
	o.kind = opLookup
	o.setOrder(ds, 0)
	want := ds.expect(&o, project)
	r := ds.rows[1]
	bad := [][]value.Value{{r[tpcc.OLItemID], r[tpcc.OLAmount], r[tpcc.OLDistInfo]}}
	if want.count == 1 && mismatch(summarize(1, bad, project), want) == "" {
		t.Error("oracle accepted another order's row")
	}
}

func TestJudge(t *testing.T) {
	lat := metricDef{Name: "read_p50_us", Better: "lower", Bound: 0.10}
	ops := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	cases := []struct {
		name string
		d    metricDef
		a, b []float64
		want verdict
	}{
		{"same", lat, steady, steady, verdictOK},
		{"slower within bound", lat, steady, []float64{105, 106, 104, 105, 105}, verdictOK},
		{"slower beyond bound", lat, steady, []float64{115, 116, 114, 115, 115}, verdictRegressed},
		{"throughput down beyond bound", ops, steady, []float64{85, 86, 84, 85, 85}, verdictRegressed},
		{"throughput up", ops, steady, []float64{130, 131, 129, 130, 130}, verdictOK},
		{"spread wider than bound", lat, []float64{80, 100, 120, 90, 110}, []float64{85, 100, 118, 92, 108}, verdictUnresolved},
		{"wide spread but every run better", lat, []float64{80, 100, 120, 90, 110}, []float64{50, 60, 70, 55, 65}, verdictOK},
	}
	for _, c := range cases {
		if got, _, _ := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	errs := metricDef{Name: "error_frac", Better: "lower", Bound: 0.001}
	if got, _, _ := judge(errs, []float64{0, 0}, []float64{0.01, 0.01}); got != verdictRegressed {
		t.Errorf("error_frac 0 -> 0.01: %s", got)
	}
	if got, _, _ := judge(errs, []float64{0, 0}, []float64{0, 0}); got != verdictOK {
		t.Errorf("error_frac 0 -> 0: %s", got)
	}
}

// benchmarkJSON mirrors the BENCHMARK.json contract.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkJSONMatchesLedger(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d built", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	g := gated()
	if len(b.EndToEnd) != len(g) {
		t.Fatalf("%d end-to-end metrics declared, %d gated", len(b.EndToEnd), len(g))
	}
	hasSetup := false
	for i, m := range b.EndToEnd {
		if m.Name != g[i].Name || m.Unit != g[i].Unit || m.Better != g[i].Better || m.Bound != g[i].Bound {
			t.Errorf("end_to_end[%d] = %+v, the ledger has %+v", i, m, g[i])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower"
	}
	if !hasSetup {
		t.Error("no setup_s among the end-to-end metrics")
	}
	if len(b.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics declared, %d in the ledger", len(b.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, m := range b.PerLayer {
		if m.Name != perLayer[i].Name || m.Unit != perLayer[i].Unit || m.Better != perLayer[i].Better {
			t.Errorf("per_layer[%d] = %+v, the ledger has %+v", i, m, perLayer[i])
		}
		if seen[m.Name] {
			t.Errorf("%s declared twice", m.Name)
		}
		seen[m.Name] = true
	}
}

// TestSmoke runs every workload end to end on the tiny dataset,
// untraced and traced, with the oracle on, and checks that each run
// reports exactly the metrics that apply to it.
func TestSmoke(t *testing.T) {
	opt := options{
		seed: 5, window: 500 * time.Millisecond,
		sc: smokeScale, laneSc: smokeScale, lanes: smokeLanes, tmp: t.TempDir(), smoke: true,
	}
	spans := newSpanLog()
	runs, err := runSet(io.Discard, workloads, opt, true, true, spans)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2*len(workloads) {
		t.Fatalf("%d runs, want %d", len(runs), 2*len(workloads))
	}
	for _, r := range runs {
		if !r.Correct {
			t.Errorf("%s (traced %v): %v", r.Workload, r.Traced, r.Problems)
		}
		if r.Attempted < 1 {
			t.Errorf("%s: nothing attempted", r.Workload)
		}
		if _, err := driverLine(r); err != nil {
			t.Error(err)
		}
		want := map[string]bool{}
		if r.Traced {
			for _, d := range perLayer {
				want[d.Name] = true
			}
		} else {
			for _, d := range endToEnd {
				// The tail percentiles need 200 samples, which a loaded CI
				// machine may not reach in half a second of scans.
				if d.appliesTo(r.Workload) && d.Name != "read_p95_us" && d.Name != "write_p95_us" {
					want[d.Name] = true
				}
			}
		}
		for name := range want {
			if _, ok := r.Metrics[name]; !ok {
				t.Errorf("%s (traced %v) did not report %s", r.Workload, r.Traced, name)
			}
		}
		for name := range r.Metrics {
			d, known := defByName(name)
			if !known || !d.appliesTo(r.Workload) {
				t.Errorf("%s (traced %v) reported %s, which does not apply to it", r.Workload, r.Traced, name)
			}
		}
	}
	all := spans.all()
	names := map[string]bool{}
	for _, s := range all {
		names[s.Name] = true
	}
	for _, n := range []string{"setup", "table.bulkload", "pass1.worker", "client.rtt.select", "client.rtt.insert", "engine.select", "engine.insert", "lane:table.merge", "column.scan_range"} {
		if !names[n] {
			t.Errorf("no %s span recorded", n)
		}
	}
	path := opt.tmp + "/spans.jsonl"
	if err := writeSpans(path, all, selfTimes(all)); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(path); err != nil || st.Size() == 0 {
		t.Errorf("spans file: %v", err)
	}
}

func TestCompareRefusesDifferentEnvironments(t *testing.T) {
	opt := options{seed: 1, window: time.Second, sc: smokeScale, laneSc: smokeScale, lanes: smokeLanes, tmp: t.TempDir(), smoke: true}
	a := environment(opt)
	b := a
	b.GitCommit = "another commit"
	if why := a.comparableTo(b); why != "" {
		t.Errorf("commits may differ: %s", why)
	}
	b.WindowS = 20
	if a.comparableTo(b) == "" {
		t.Error("different windows compared")
	}
}
