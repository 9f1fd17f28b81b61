// Package obsrv is tierdb's embedded observability server: a plain
// net/http handler that surfaces engine metrics (Prometheus text
// exposition and raw JSON), pprof profiles, the recent/slow query
// trace rings, the captured workload (the cost model's b_j, q_j, s_i
// inputs), and a live layout advisor that re-runs the column-selection
// model against the observed workload.
//
// The package deliberately does not import the root tierdb package
// (which imports the packages this one reports on); the root wires a
// Server up with closures and the typed report structs defined here.
package obsrv

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"tierdb/internal/explain"
	"tierdb/internal/metrics"
	"tierdb/internal/trace"
)

// Server holds the data sources the HTTP handlers render. Every field
// is optional: handlers whose source is nil answer 404, so a partially
// wired server (e.g. in tests) still serves the rest.
type Server struct {
	// Snapshot returns the current metrics snapshot; feeds /metrics
	// and /stats.json.
	Snapshot func() metrics.Snapshot
	// Recent and Slow are the query trace rings behind /traces.
	Recent *metrics.TraceRing
	Slow   *metrics.TraceRing
	// SlowThreshold is reported alongside /traces?slow=1 output.
	SlowThreshold time.Duration
	// Workload reports the captured per-table workload for /workload.
	Workload func() []TableWorkload
	// Advise runs the layout advisor for one table (/layout/advisor).
	Advise func(table string, q AdvisorQuery) (*AdvisorReport, error)
	// Tables lists table names, used when /layout/advisor is asked to
	// advise everything.
	Tables func() []string
	// Adaptive reports the adaptive placement scheduler's state and last
	// per-table decisions (/layout/adaptive).
	Adaptive func() *AdaptiveReport
	// Spans is the distributed-trace span ring behind /trace/{id}; it
	// also attaches span trees to /traces entries that carry a trace ID.
	Spans *trace.Ring
	// Explain runs EXPLAIN (analyze absent/0) or EXPLAIN ANALYZE
	// (analyze=1) for one table (/explain).
	Explain func(table string, specs []explain.PredicateSpec, project []string, analyze bool) (*explain.Plan, error)
	// Ready reports readiness for /readyz: WAL recovery finished and
	// the instance is accepting work. Nil answers 404 (not wired).
	Ready func() bool
	// Build reports build metadata for the tierdb_build_info series on
	// /metrics. Nil omits the series.
	Build func() BuildInfo
	// Uptime reports process uptime for tierdb_uptime_seconds on
	// /metrics. Nil omits the series.
	Uptime func() time.Duration
}

// BuildInfo is the metadata behind the tierdb_build_info gauge: the
// series always has value 1, the interesting bits ride in labels.
type BuildInfo struct {
	// Version is the main module's version ("(devel)" for plain builds).
	Version string `json:"version"`
	// GoVersion is the toolchain that built the binary.
	GoVersion string `json:"go_version"`
	// Revision is the VCS revision, when stamped into the build.
	Revision string `json:"revision,omitempty"`
}

// AdvisorQuery carries the /layout/advisor knobs.
type AdvisorQuery struct {
	// BudgetBytes caps DRAM for the recommended placement; 0 means
	// "use the table's current DRAM footprint" so the advisor answers
	// "could these same bytes be spent better".
	BudgetBytes int64
	// RelativeBudget, when >0, overrides BudgetBytes as a fraction of
	// the table's all-in-DRAM footprint (the paper's relative MMB).
	RelativeBudget float64
	// MinSamples is how many observed-selectivity samples a column
	// needs before the advisor trusts its EWMA over the static
	// estimate. Zero selects the default.
	MinSamples int
	// Beta, when > 0, makes the advisor solve the reallocation-aware
	// problem (paper formulation (6)-(7)): moving a byte between tiers
	// costs Beta, with the table's current layout as y. Zero keeps the
	// classic placement-from-scratch advice.
	Beta float64
}

// AdaptiveReport is the /layout/adaptive answer: the daemon's
// configuration, lifetime totals and the last decision per table.
type AdaptiveReport struct {
	Enabled         bool    `json:"enabled"`
	IntervalNs      int64   `json:"interval_ns"`
	Alpha           float64 `json:"alpha,omitempty"`
	Beta            float64 `json:"beta,omitempty"`
	MinGain         float64 `json:"min_gain"`
	MaxMoveFraction float64 `json:"max_move_fraction"`
	CooldownCycles  int     `json:"cooldown_cycles"`
	Cycles          uint64  `json:"cycles"`
	Applies         uint64  `json:"applies"`
	Skips           uint64  `json:"skips"`
	Errors          uint64  `json:"errors"`
	MovedBytes      int64   `json:"moved_bytes"`
	// Tables holds the most recent decision per table, sorted by name.
	Tables []AdaptiveDecision `json:"tables,omitempty"`
}

// AdaptiveDecision records what the adaptive scheduler decided for one
// table in one cycle, and why.
type AdaptiveDecision struct {
	Table string `json:"table"`
	Cycle uint64 `json:"cycle"`
	// Action is "applied", "skipped" or "error"; Reason says why.
	Action string `json:"action"`
	Reason string `json:"reason"`
	// WindowQueries is the total query frequency of the closed window
	// the decision was based on.
	WindowQueries float64 `json:"window_queries"`
	// CurrentCost and RecommendedCost are the modeled objectives of
	// the present and recommended placements under that window: the
	// scan cost F(x), plus alpha*M(x) when the daemon runs the penalty
	// form (DRAM rent is part of what it minimizes there).
	CurrentCost     float64 `json:"current_cost,omitempty"`
	RecommendedCost float64 `json:"recommended_cost,omitempty"`
	// Improvement is (current-recommended)/current.
	Improvement float64 `json:"improvement,omitempty"`
	// MovedBytes is how many column bytes the recommendation relocates.
	MovedBytes  int64  `json:"moved_bytes,omitempty"`
	SolveNs     int64  `json:"solve_ns,omitempty"`
	Current     []bool `json:"current,omitempty"`
	Recommended []bool `json:"recommended,omitempty"`
	// CooldownLeft is how many cycles of flip-back cooldown remain.
	CooldownLeft int `json:"cooldown_left,omitempty"`
}

// TableWorkload is the /workload report for one table: the captured
// inputs of the paper's cost model.
type TableWorkload struct {
	Table          string           `json:"table"`
	Rows           int              `json:"rows"`
	MemoryBytes    int64            `json:"memory_bytes"`
	SecondaryBytes int64            `json:"secondary_bytes"`
	Columns        []WorkloadColumn `json:"columns"`
	// Plans is the all-time plan cache: each distinct filtered column
	// set (b_j) with its observed frequency (q_j).
	Plans []PlanInfo `json:"plans,omitempty"`
	// CurrentWindow holds the plans of the open history window.
	CurrentWindow []PlanInfo `json:"current_window,omitempty"`
	ClosedWindows int        `json:"closed_windows"`
}

// WorkloadColumn describes one column's model inputs.
type WorkloadColumn struct {
	Index     int    `json:"index"`
	Name      string `json:"name"`
	SizeBytes int64  `json:"size_bytes"`
	InDRAM    bool   `json:"in_dram"`
	// AccessCount is the plan-weighted access frequency g_i.
	AccessCount float64 `json:"access_count"`
	// EstimatedSelectivity is the static estimate (1/distinct).
	EstimatedSelectivity float64 `json:"estimated_selectivity"`
	// ObservedSelectivity is the runtime EWMA of qualifying fractions;
	// zero until ObservedSamples > 0.
	ObservedSelectivity float64 `json:"observed_selectivity,omitempty"`
	ObservedSamples     int64   `json:"observed_samples,omitempty"`
}

// PlanInfo is one access plan: a filtered column set and how often it
// was seen.
type PlanInfo struct {
	Columns []int    `json:"columns"`
	Names   []string `json:"names,omitempty"`
	Count   float64  `json:"count"`
}

// Placement is one evaluated data placement: the DRAM bitmap plus its
// modeled memory footprint and scan cost under the captured workload.
type Placement struct {
	InDRAM      []bool  `json:"in_dram"`
	MemoryBytes int64   `json:"memory_bytes"`
	ModeledCost float64 `json:"modeled_cost"`
}

// AdvisorColumn explains the advisor's view of one column.
type AdvisorColumn struct {
	Index     int    `json:"index"`
	Name      string `json:"name"`
	SizeBytes int64  `json:"size_bytes"`
	// Selectivity is the value the model was fed; SelectivitySource
	// says whether it came from the observed EWMA or the static
	// estimate.
	Selectivity       float64 `json:"selectivity"`
	SelectivitySource string  `json:"selectivity_source"`
	ObservedSamples   int64   `json:"observed_samples,omitempty"`
	AccessCount       float64 `json:"access_count"`
	InDRAMNow         bool    `json:"in_dram_now"`
	InDRAMRecommended bool    `json:"in_dram_recommended"`
}

// AdvisorReport is the /layout/advisor answer for one table.
type AdvisorReport struct {
	Table           string          `json:"table"`
	Method          string          `json:"method"`
	BudgetBytes     int64           `json:"budget_bytes"`
	RelativeBudget  float64         `json:"relative_budget,omitempty"`
	Beta            float64         `json:"beta,omitempty"`
	MinSamples      int             `json:"min_samples"`
	ObservedColumns int             `json:"observed_columns"`
	Queries         float64         `json:"queries"`
	Current         Placement       `json:"current"`
	Recommended     Placement       `json:"recommended"`
	CostDelta       float64         `json:"cost_delta"`
	Improvement     float64         `json:"improvement"`
	Changed         bool            `json:"changed"`
	Columns         []AdvisorColumn `json:"columns"`
}

// Handler returns the observability mux. pprof is wired explicitly so
// nothing leaks onto http.DefaultServeMux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.serveIndex)
	mux.HandleFunc("/metrics", s.serveMetrics)
	mux.HandleFunc("/stats.json", s.serveStatsJSON)
	mux.HandleFunc("/traces", s.serveTraces)
	mux.HandleFunc("/trace/", s.serveTrace)
	mux.HandleFunc("/healthz", s.serveHealthz)
	mux.HandleFunc("/readyz", s.serveReadyz)
	mux.HandleFunc("/workload", s.serveWorkload)
	mux.HandleFunc("/layout/advisor", s.serveAdvisor)
	mux.HandleFunc("/layout/adaptive", s.serveAdaptive)
	mux.HandleFunc("/explain", s.serveExplain)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func (s *Server) serveIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, `tierdb observability
  /metrics            Prometheus text exposition
  /stats.json         raw metrics snapshot (JSON)
  /traces             recent query traces (?slow=1 ?n=20 ?format=text)
  /trace/{id}         one distributed trace as a span tree (?format=text)
  /healthz            liveness probe (always ok while serving)
  /readyz             readiness probe (recovery finished, accepting work)
  /workload           captured workload: plans, access counts, selectivities
  /layout/advisor     layout recommendation (?table= ?budget= ?w= ?min_samples= ?beta=)
  /layout/adaptive    adaptive placement scheduler: last decisions + reasons
  /explain            EXPLAIN/ANALYZE one query (?table= ?q=col=v,col=lo..hi ?project= ?analyze=1 ?format=text)
  /debug/pprof/       runtime profiles
`)
}

func (s *Server) serveMetrics(w http.ResponseWriter, r *http.Request) {
	if s.Snapshot == nil {
		http.Error(w, "no metrics source", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(RenderPrometheus(s.Snapshot()))
	if s.Build != nil {
		w.Write(RenderBuildInfo(s.Build()))
	}
	if s.Uptime != nil {
		w.Write(RenderUptime(s.Uptime()))
	}
}

func (s *Server) serveStatsJSON(w http.ResponseWriter, r *http.Request) {
	if s.Snapshot == nil {
		http.Error(w, "no metrics source", http.StatusNotFound)
		return
	}
	writeJSON(w, s.Snapshot())
}

// tracesReply is the JSON shape of /traces.
type tracesReply struct {
	Ring            string       `json:"ring"`
	Capacity        int          `json:"capacity"`
	Added           uint64       `json:"added"`
	SlowThresholdNs int64        `json:"slow_threshold_ns,omitempty"`
	Entries         []traceEntry `json:"entries"`
}

// traceEntry is one /traces entry: the captured query trace plus, when
// the query ran under a distributed trace whose spans are still in the
// ring, the whole span tree with the slowest path identified.
type traceEntry struct {
	*metrics.TraceEntry
	// Spans is the distributed trace's span tree (all roots).
	Spans []*trace.Node `json:"spans,omitempty"`
	// SlowestPath lists the span IDs on the slowest root-to-leaf chain
	// of the first root — the operations that dominated latency.
	SlowestPath []trace.SpanID `json:"slowest_path,omitempty"`
}

// attachSpans resolves an entry's trace ID against the span ring.
func (s *Server) attachSpans(e *metrics.TraceEntry) traceEntry {
	out := traceEntry{TraceEntry: e}
	if s.Spans == nil || e.TraceID == "" {
		return out
	}
	id, err := trace.ParseTraceID(e.TraceID)
	if err != nil {
		return out
	}
	spans := s.Spans.ByTrace(id)
	if len(spans) == 0 {
		return out
	}
	out.Spans = trace.BuildTree(spans)
	for id := range trace.SlowestPath(out.Spans[0]) {
		out.SlowestPath = append(out.SlowestPath, id)
	}
	slices.Sort(out.SlowestPath)
	return out
}

func (s *Server) serveTraces(w http.ResponseWriter, r *http.Request) {
	ring, name := s.Recent, "recent"
	if r.URL.Query().Get("slow") == "1" {
		ring, name = s.Slow, "slow"
	}
	if ring == nil {
		http.Error(w, "trace capture not enabled", http.StatusNotFound)
		return
	}
	raw := ring.Snapshot()
	if v := r.URL.Query().Get("n"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			// Zero, negative and overflowing counts are caller bugs;
			// refuse them instead of silently clamping to nothing.
			http.Error(w, "bad n (want a positive count)", http.StatusBadRequest)
			return
		}
		if n < len(raw) {
			raw = raw[:n]
		}
	}
	entries := make([]traceEntry, 0, len(raw))
	for _, e := range raw {
		entries = append(entries, s.attachSpans(e))
	}
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "%s traces: %d held (capacity %d, %d captured)\n",
			name, len(entries), ring.Cap(), ring.Added())
		for _, e := range entries {
			fmt.Fprintf(w, "\n#%d %s wall=%s", e.Seq,
				time.Unix(0, e.UnixNano).UTC().Format(time.RFC3339Nano),
				time.Duration(e.WallNs))
			if e.TraceID != "" {
				fmt.Fprintf(w, " trace=%s", e.TraceID)
			}
			if e.Err != "" {
				fmt.Fprintf(w, " err=%q", e.Err)
			}
			fmt.Fprintln(w)
			if e.Trace != nil {
				fmt.Fprintln(w, e.Trace.String())
			}
			if len(e.Spans) > 0 {
				fmt.Fprint(w, trace.RenderText(e.Spans, trace.SlowestPath(e.Spans[0])))
			}
		}
		return
	}
	writeJSON(w, tracesReply{
		Ring:            name,
		Capacity:        ring.Cap(),
		Added:           ring.Added(),
		SlowThresholdNs: s.SlowThreshold.Nanoseconds(),
		Entries:         entries,
	})
}

func (s *Server) serveWorkload(w http.ResponseWriter, r *http.Request) {
	if s.Workload == nil {
		http.Error(w, "no workload source", http.StatusNotFound)
		return
	}
	tables := s.Workload()
	sort.Slice(tables, func(i, j int) bool { return tables[i].Table < tables[j].Table })
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for _, t := range tables {
			fmt.Fprintf(w, "table %s: %d rows, %d bytes DRAM, %d bytes secondary, %d closed windows\n",
				t.Table, t.Rows, t.MemoryBytes, t.SecondaryBytes, t.ClosedWindows)
			for _, c := range t.Columns {
				fmt.Fprintf(w, "  col %2d %-12s %8dB g=%-8.6g s_est=%-8.6g", c.Index, c.Name, c.SizeBytes, c.AccessCount, c.EstimatedSelectivity)
				if c.ObservedSamples > 0 {
					fmt.Fprintf(w, " s_obs=%-8.6g (%d samples)", c.ObservedSelectivity, c.ObservedSamples)
				}
				if c.InDRAM {
					fmt.Fprint(w, " [DRAM]")
				}
				fmt.Fprintln(w)
			}
			for _, p := range t.Plans {
				fmt.Fprintf(w, "  plan b=%v q=%g\n", p.Columns, p.Count)
			}
		}
		return
	}
	writeJSON(w, struct {
		Tables []TableWorkload `json:"tables"`
	}{tables})
}

func (s *Server) serveAdvisor(w http.ResponseWriter, r *http.Request) {
	if s.Advise == nil {
		http.Error(w, "no advisor source", http.StatusNotFound)
		return
	}
	var q AdvisorQuery
	qs := r.URL.Query()
	if v := qs.Get("budget"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 0 {
			http.Error(w, "bad budget", http.StatusBadRequest)
			return
		}
		q.BudgetBytes = n
	}
	if v := qs.Get("w"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || f <= 0 || f > 1 {
			http.Error(w, "bad w (want 0 < w <= 1)", http.StatusBadRequest)
			return
		}
		q.RelativeBudget = f
	}
	if v := qs.Get("min_samples"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			http.Error(w, "bad min_samples", http.StatusBadRequest)
			return
		}
		q.MinSamples = n
	}
	if v := qs.Get("beta"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || f < 0 {
			http.Error(w, "bad beta (want beta >= 0)", http.StatusBadRequest)
			return
		}
		q.Beta = f
	}
	names := []string{}
	if t := qs.Get("table"); t != "" {
		names = append(names, t)
	} else if s.Tables != nil {
		names = s.Tables()
		sort.Strings(names)
	}
	reports := make([]*AdvisorReport, 0, len(names))
	for _, name := range names {
		rep, err := s.Advise(name, q)
		if err != nil {
			status := http.StatusBadRequest
			if len(names) == 1 {
				http.Error(w, err.Error(), status)
				return
			}
			continue // skip tables that cannot be advised in the all-tables sweep
		}
		reports = append(reports, rep)
	}
	writeJSON(w, struct {
		Reports []*AdvisorReport `json:"reports"`
	}{reports})
}

func (s *Server) serveAdaptive(w http.ResponseWriter, r *http.Request) {
	if s.Adaptive == nil {
		http.Error(w, "no adaptive scheduler", http.StatusNotFound)
		return
	}
	writeJSON(w, s.Adaptive())
}

// serveExplain answers /explain?table=&q=col=v,col=lo..hi&project=a,b
// with an explain.Plan: plan-only by default, executed-and-annotated
// with analyze=1. format=text renders the tierctl tree instead of JSON.
func (s *Server) serveExplain(w http.ResponseWriter, r *http.Request) {
	if s.Explain == nil {
		http.Error(w, "no explain source", http.StatusNotFound)
		return
	}
	qs := r.URL.Query()
	table := qs.Get("table")
	if table == "" {
		http.Error(w, "missing table", http.StatusBadRequest)
		return
	}
	specs, err := explain.ParseQuerySpec(qs.Get("q"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var project []string
	if v := qs.Get("project"); v != "" {
		project = strings.Split(v, ",")
	}
	analyze := false
	switch qs.Get("analyze") {
	case "", "0":
	case "1":
		analyze = true
	default:
		http.Error(w, "bad analyze (want 0 or 1)", http.StatusBadRequest)
		return
	}
	plan, err := s.Explain(table, specs, project, analyze)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if qs.Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, explain.RenderText(plan))
		return
	}
	writeJSON(w, plan)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
