package tierdb

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"tierdb/internal/obsrv"
)

func obsGet(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestObservabilityEndToEnd boots a DB with the observability server on
// a random port, drives a skewed workload, and checks every endpoint
// against the acceptance criteria: /metrics parses as Prometheus text
// exposition and carries the build-info and uptime series, /healthz and
// /readyz answer, /workload reports the captured model inputs, /traces
// is bounded, /layout/advisor returns a recommendation that differs
// from the current layout, whose modeled costs match the core model,
// and which ApplyLayout applies verbatim (with and without a
// reallocation cost), and /explain answers an ANALYZE plan.
func TestObservabilityEndToEnd(t *testing.T) {
	db, err := Open(Config{
		Device:             "3D XPoint",
		CacheFrames:        64,
		ObsAddr:            "127.0.0.1:0",
		SlowQueryThreshold: time.Nanosecond, // everything is slow
		TraceRingSize:      16,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	base := db.ObsURL()
	if base == "" {
		t.Fatal("ObsURL empty with ObsAddr set")
	}

	tbl, err := db.CreateTable("orders", testFields())
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]Value, 5000)
	for i := range rows {
		rows[i] = []Value{Int(int64(i)), Int(int64(i % 8)), Float(float64(i) / 2), String("n")}
	}
	if err := tbl.BulkLoad(rows); err != nil {
		t.Fatal(err)
	}
	// Skewed workload: the region column dominates the plan cache, so a
	// tight budget must keep it resident and evict the rest.
	region, err := tbl.Eq("region", Int(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, err := tbl.Select(nil, []Predicate{region}, "amount"); err != nil {
			t.Fatal(err)
		}
	}

	// /metrics must be valid Prometheus exposition.
	code, body := obsGet(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: status %d", code)
	}
	if err := obsrv.ValidateExposition(body); err != nil {
		t.Fatalf("/metrics invalid: %v", err)
	}
	for _, series := range []string{"tierdb_build_info{", "tierdb_uptime_seconds "} {
		if !bytes.Contains(body, []byte(series)) {
			t.Errorf("/metrics misses the %s series", series)
		}
	}
	for path, want := range map[string]string{"/healthz": "ok", "/readyz": "ready"} {
		if code, body := obsGet(t, base+path); code != http.StatusOK || strings.TrimSpace(string(body)) != want {
			t.Errorf("%s: status %d, body %q; want %q", path, code, body, want)
		}
	}

	// /stats.json round-trips the snapshot.
	code, body = obsGet(t, base+"/stats.json")
	if code != http.StatusOK {
		t.Fatalf("/stats.json: status %d", code)
	}
	var snap StatsSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/stats.json: %v", err)
	}
	if snap.Counters["exec.queries"] < 30 {
		t.Errorf("exec.queries = %d, want >= 30", snap.Counters["exec.queries"])
	}
	if snap.Counters["selectivity.samples"] < 30 {
		t.Errorf("selectivity.samples = %d, want >= 30", snap.Counters["selectivity.samples"])
	}

	// /traces holds at most TraceRingSize entries, newest first; the
	// 1ns threshold routes everything into the slow ring too.
	for _, path := range []string{"/traces", "/traces?slow=1"} {
		code, body = obsGet(t, base+path)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d", path, code)
		}
		var reply struct {
			Added   uint64            `json:"added"`
			Entries []json.RawMessage `json:"entries"`
		}
		if err := json.Unmarshal(body, &reply); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if reply.Added < 30 {
			t.Errorf("%s: added %d, want >= 30", path, reply.Added)
		}
		if len(reply.Entries) != 16 {
			t.Errorf("%s: %d entries, want the ring bound 16", path, len(reply.Entries))
		}
	}

	// /workload reports the model inputs including observed EWMAs.
	code, body = obsGet(t, base+"/workload")
	if code != http.StatusOK {
		t.Fatalf("/workload: status %d", code)
	}
	var wl struct {
		Tables []TableWorkloadReport `json:"tables"`
	}
	if err := json.Unmarshal(body, &wl); err != nil {
		t.Fatal(err)
	}
	if len(wl.Tables) != 1 || wl.Tables[0].Table != "orders" {
		t.Fatalf("/workload: %+v", wl)
	}
	regionCol := wl.Tables[0].Columns[1]
	if regionCol.Name != "region" || regionCol.AccessCount < 30 {
		t.Errorf("region column report: %+v", regionCol)
	}
	if regionCol.ObservedSamples < 30 || math.Abs(regionCol.ObservedSelectivity-0.125) > 1e-9 {
		t.Errorf("region observed selectivity: %+v (want 1/8 with >= 30 samples)", regionCol)
	}
	if len(wl.Tables[0].Plans) != 1 || wl.Tables[0].Plans[0].Count != 30 {
		t.Errorf("plan cache report: %+v", wl.Tables[0].Plans)
	}

	// Put the table into a deliberately bad placement — the hot region
	// column evicted, cold columns resident — then ask the advisor
	// whether the same bytes could be spent better (budget 0 = current
	// footprint).
	if err := tbl.ApplyLayout(Layout{InDRAM: []bool{true, false, true, true}}); err != nil {
		t.Fatal(err)
	}
	code, body = obsGet(t, base+"/layout/advisor?table=orders")
	if code != http.StatusOK {
		t.Fatalf("/layout/advisor: status %d: %s", code, body)
	}
	var adv struct {
		Reports []*AdvisorReport `json:"reports"`
	}
	if err := json.Unmarshal(body, &adv); err != nil {
		t.Fatal(err)
	}
	if len(adv.Reports) != 1 {
		t.Fatalf("advisor reports: %d", len(adv.Reports))
	}
	rep := adv.Reports[0]
	if !rep.Changed {
		t.Fatal("advisor found nothing to change in a layout with the hot column evicted")
	}
	if !rep.Recommended.InDRAM[1] {
		t.Error("advisor evicted the hot region column")
	}
	if rep.ObservedColumns < 1 || rep.Columns[1].SelectivitySource != "observed" {
		t.Errorf("advisor ignored observed selectivity: %+v", rep.Columns[1])
	}
	if rep.Recommended.ModeledCost >= rep.Current.ModeledCost {
		t.Errorf("recommendation does not improve: cur=%g rec=%g", rep.Current.ModeledCost, rep.Recommended.ModeledCost)
	}

	// The modeled costs must match the core model run independently on
	// the same inputs (observed selectivities, same budget).
	w, err := tbl.ExtractWorkload(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range w.Columns {
		if sel, n := tbl.Inner().ObservedSelectivity(i); n >= DefaultAdvisorMinSamples {
			w.Columns[i].Selectivity = sel
		}
	}
	want, err := Solve(w, PlacementOptions{Budget: rep.BudgetBytes, Method: MethodExplicit})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(want.EstimatedCost-rep.Recommended.ModeledCost) > 1e-9*math.Max(1, want.EstimatedCost) {
		t.Errorf("advisor cost %g != core cost %g", rep.Recommended.ModeledCost, want.EstimatedCost)
	}
	if math.Abs((rep.Recommended.ModeledCost-rep.Current.ModeledCost)-rep.CostDelta) > 1e-9 {
		t.Errorf("cost delta inconsistent: %g", rep.CostDelta)
	}

	// The recommendation applies verbatim.
	if err := tbl.ApplyLayout(Layout{InDRAM: rep.Recommended.InDRAM}); err != nil {
		t.Fatalf("ApplyLayout(recommendation): %v", err)
	}
	got := tbl.Layout()
	for i := range got {
		if got[i] != rep.Recommended.InDRAM[i] {
			t.Fatalf("layout after apply differs at column %d", i)
		}
	}
	// Queries still answer correctly on the re-tiered table.
	res, err := tbl.Select(nil, []Predicate{region}, "amount")
	if err != nil || len(res.IDs) != 5000/8 {
		t.Fatalf("select after re-tiering: %v, %d rows", err, len(res.IDs))
	}
	// Re-advising under the same budget is now a no-op.
	again, err := tbl.Advise(AdvisorQuery{BudgetBytes: rep.BudgetBytes})
	if err != nil {
		t.Fatal(err)
	}
	if again.Changed {
		t.Errorf("advisor wants further changes right after applying its advice: %+v", again.Recommended)
	}

	// Reallocation-aware advice: a nonzero beta charges moves against
	// the incumbent placement. The answer echoes beta and applies.
	code, body = obsGet(t, base+"/layout/advisor?table=orders&beta=1e-10")
	if code != http.StatusOK {
		t.Fatalf("/layout/advisor?beta: status %d: %s", code, body)
	}
	if err := json.Unmarshal(body, &adv); err != nil {
		t.Fatal(err)
	}
	if len(adv.Reports) != 1 || adv.Reports[0].Beta != 1e-10 {
		t.Fatalf("/layout/advisor?beta did not echo beta: %s", body)
	}
	if err := tbl.ApplyLayout(Layout{InDRAM: adv.Reports[0].Recommended.InDRAM}); err != nil {
		t.Fatalf("ApplyLayout(beta recommendation): %v", err)
	}

	// EXPLAIN ANALYZE over HTTP: operator nodes and a modeled cost.
	code, body = obsGet(t, base+"/explain?table=orders&q=region=3&project=amount&analyze=1")
	if code != http.StatusOK {
		t.Fatalf("/explain: status %d: %s", code, body)
	}
	var plan ExplainPlan
	if err := json.Unmarshal(body, &plan); err != nil {
		t.Fatal(err)
	}
	if plan.Mode != "analyze" || len(plan.Nodes) == 0 || plan.Placement.CurrentCost <= 0 {
		t.Errorf("/explain: mode %s, %d nodes, current_modeled_cost %g", plan.Mode, len(plan.Nodes), plan.Placement.CurrentCost)
	}

	// pprof and the index answer.
	if code, _ := obsGet(t, base+"/debug/pprof/goroutine?debug=1"); code != http.StatusOK {
		t.Errorf("pprof: status %d", code)
	}
	if code, _ := obsGet(t, base+"/"); code != http.StatusOK {
		t.Errorf("index: status %d", code)
	}
}

// TestObservabilityDisabledCapture proves DisableCapture: no rings, no
// EWMAs, but the server still answers.
func TestObservabilityDisabledCapture(t *testing.T) {
	db, err := Open(Config{ObsAddr: "127.0.0.1:0", DisableCapture: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable("t", testFields())
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.BulkLoad([][]Value{{Int(1), Int(2), Float(3), String("a")}}); err != nil {
		t.Fatal(err)
	}
	p, err := tbl.Eq("region", Int(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Select(nil, []Predicate{p}); err != nil {
		t.Fatal(err)
	}
	if _, n := tbl.Inner().ObservedSelectivity(1); n != 0 {
		t.Errorf("capture disabled but %d selectivity samples recorded", n)
	}
	if code, _ := obsGet(t, db.ObsURL()+"/traces"); code != http.StatusNotFound {
		t.Errorf("/traces with capture disabled: status %d, want 404", code)
	}
	if code, _ := obsGet(t, db.ObsURL()+"/metrics"); code != http.StatusOK {
		t.Errorf("/metrics with capture disabled: status %d", code)
	}
}
