package tierdb

import (
	"context"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"tierdb/internal/core"
	"tierdb/internal/obsrv"
	"tierdb/internal/trace"
	"tierdb/internal/workload"
)

// Observability report types; see DB.ServeObservability and
// Table.Advise.
type (
	// AdvisorQuery parameterizes the live layout advisor.
	AdvisorQuery = obsrv.AdvisorQuery
	// AdvisorReport is the advisor's answer: current vs recommended
	// placement with modeled costs.
	AdvisorReport = obsrv.AdvisorReport
	// TableWorkloadReport is the captured workload of one table as
	// served by /workload.
	TableWorkloadReport = obsrv.TableWorkload
)

// DefaultAdvisorMinSamples is how many observed-selectivity samples a
// column needs before the advisor trusts its runtime EWMA over the
// static 1/distinct estimate (AdvisorQuery.MinSamples zero value).
const DefaultAdvisorMinSamples = 5

// Observability builds the instance's observability server. Most
// callers use Config.ObsAddr or ServeObservability instead; this hook
// exists to mount the handler into an existing mux.
func (db *DB) Observability() *obsrv.Server {
	return &obsrv.Server{
		Snapshot:      db.Stats,
		Recent:        db.recent,
		Slow:          db.slow,
		SlowThreshold: db.slowThresh,
		Workload:      db.workloadReport,
		Tables:        db.Tables,
		Advise: func(name string, q obsrv.AdvisorQuery) (*obsrv.AdvisorReport, error) {
			t, err := db.Table(name)
			if err != nil {
				return nil, err
			}
			return t.Advise(q)
		},
		Adaptive: db.AdaptiveStatus,
		Spans:    db.tracer.Ring(),
		Ready:    db.Ready,
		Build:    buildInfo,
		Uptime:   func() time.Duration { return time.Since(db.start) },
		// Explain runs EXPLAIN, or EXPLAIN ANALYZE, of a query whose
		// predicate values are strings, parsed by the column's type.
		Explain: func(name string, specs []ExplainSpec, project []string, analyze bool) (plan *ExplainPlan, err error) {
			// A sampled span links the plan to /trace/{id}; unsampled
			// runs get a nil span and the context flows through inert.
			span := db.tracer.Start("explain.query", trace.String("table", name))
			defer func() {
				span.SetError(err)
				span.End()
			}()
			t, err := db.Table(name)
			if err != nil {
				return nil, err
			}
			preds := make([]Predicate, len(specs))
			for i, s := range specs {
				if preds[i], err = t.compileSpec(s); err != nil {
					return nil, err
				}
			}
			if !analyze {
				return t.Explain(preds, project...)
			}
			_, plan, err = t.SelectExplainedCtx(trace.NewContext(context.Background(), span), nil, preds, project...)
			return plan, err
		},
	}
}

// BuildInfo is the binary's build metadata, as exposed by the
// tierdb_build_info metric series.
type BuildInfo = obsrv.BuildInfo

// Build reports the binary's build metadata — the same version,
// revision and Go version the tierdb_build_info series exports.
func Build() BuildInfo { return buildInfo() }

// buildInfo reads build metadata for the tierdb_build_info series.
func buildInfo() obsrv.BuildInfo {
	bi := obsrv.BuildInfo{Version: "(devel)", GoVersion: runtime.Version()}
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return bi
	}
	if info.Main.Version != "" {
		bi.Version = info.Main.Version
	}
	if info.GoVersion != "" {
		bi.GoVersion = info.GoVersion
	}
	for _, s := range info.Settings {
		if s.Key == "vcs.revision" {
			bi.Revision = s.Value
		}
	}
	return bi
}

// ServeObservability serves the observability endpoints on the given
// listener until the server or the database is closed. It blocks; run
// it in a goroutine when the caller owns the listener (Config.ObsAddr
// does this automatically).
func (db *DB) ServeObservability(l net.Listener) error {
	srv := &http.Server{Handler: db.Observability().Handler()}
	db.obsMu.Lock()
	db.obsSrvs = append(db.obsSrvs, srv)
	if db.obsAddr == "" {
		db.obsAddr = l.Addr().String()
	}
	db.obsMu.Unlock()
	if err := srv.Serve(l); err != http.ErrServerClosed {
		return err
	}
	return nil
}

// ObsURL returns the base URL of the first observability listener
// ("http://host:port"), or "" when none is serving. With ObsAddr ":0"
// this reports the actual port.
func (db *DB) ObsURL() string {
	db.obsMu.Lock()
	defer db.obsMu.Unlock()
	if db.obsAddr == "" {
		return ""
	}
	return "http://" + db.obsAddr
}

// workloadReport captures every table's workload for /workload.
func (db *DB) workloadReport() []obsrv.TableWorkload {
	tables := db.tableList()
	out := make([]obsrv.TableWorkload, 0, len(tables))
	for _, t := range tables {
		out = append(out, t.WorkloadReport())
	}
	return out
}

// WorkloadReport captures the table's live workload: per-column model
// inputs (sizes, access counts g_i, estimated and observed
// selectivities s_i) and the plan cache (b_j, q_j), plus the open
// history window.
func (t *Table) WorkloadReport() obsrv.TableWorkload {
	s := t.inner.Schema()
	rep := obsrv.TableWorkload{
		Table:          t.inner.Name(),
		Rows:           t.inner.VisibleCount(),
		MemoryBytes:    t.inner.MemoryBytes(),
		SecondaryBytes: t.inner.SecondaryBytes(),
		ClosedWindows:  t.WorkloadWindows(),
	}
	layout := t.inner.Layout()
	plans := t.plans.Plans()
	var access []float64
	if w, err := t.model(plans, nil); err == nil {
		access = w.AccessCounts()
	}
	for i := 0; i < s.Len(); i++ {
		col := obsrv.WorkloadColumn{
			Index:                i,
			Name:                 s.Field(i).Name,
			SizeBytes:            t.inner.ColumnBytes(i),
			InDRAM:               layout[i],
			EstimatedSelectivity: t.inner.Selectivity(i),
		}
		if access != nil {
			col.AccessCount = access[i]
		}
		if sel, n := t.inner.ObservedSelectivity(i); n > 0 {
			col.ObservedSelectivity, col.ObservedSamples = sel, n
		}
		rep.Columns = append(rep.Columns, col)
	}
	name := func(c int) string { return s.Field(c).Name }
	rep.Plans = planInfos(plans, name)
	rep.CurrentWindow = planInfos(t.plans.CurrentPlans(), name)
	return rep
}

func planInfos(plans []workload.Plan, name func(int) string) []obsrv.PlanInfo {
	out := make([]obsrv.PlanInfo, 0, len(plans))
	for _, p := range plans {
		names := make([]string, len(p.Columns))
		for i, c := range p.Columns {
			names[i] = name(c)
		}
		out = append(out, obsrv.PlanInfo{Columns: p.Columns, Names: names, Count: p.Count})
	}
	return out
}

// Advise re-runs the explicit column selection model (Theorem 2) on
// the table's captured workload and compares the result against the
// current placement. Columns with at least MinSamples runtime
// selectivity observations feed the model their EWMA instead of the
// static estimate. A zero BudgetBytes advises within the current
// modeled DRAM footprint — "could these bytes be spent better". A
// nonzero Beta charges reallocation costs (formulation (6)-(7)): the
// current layout becomes y and moving a byte between tiers costs Beta,
// so marginal wins no longer justify churn. The recommendation applies
// verbatim via ApplyLayout(Layout{InDRAM: rep.Recommended.InDRAM}).
func (t *Table) Advise(q AdvisorQuery) (*AdvisorReport, error) {
	w, err := t.model(t.plans.Plans(), nil)
	if err != nil {
		return nil, err
	}
	minSamples := q.MinSamples
	if minSamples <= 0 {
		minSamples = DefaultAdvisorMinSamples
	}
	sources, samples, observed := t.observe(w, minSamples)
	current := t.inner.Layout()
	opts := t.defaults(w, PlacementOptions{
		Budget: q.BudgetBytes, RelativeBudget: q.RelativeBudget, Beta: q.Beta, Current: current,
	})
	rec, err := Solve(w, opts)
	if err != nil {
		return nil, err
	}
	costs := core.DefaultCostParams()
	curCost := core.ScanCost(w, costs, current)
	var queries float64
	for _, qy := range w.Queries {
		queries += qy.Frequency
	}
	rep := &AdvisorReport{
		Table:           t.inner.Name(),
		Method:          opts.Method.String(),
		BudgetBytes:     opts.Budget,
		RelativeBudget:  q.RelativeBudget,
		Beta:            q.Beta,
		MinSamples:      minSamples,
		ObservedColumns: observed,
		Queries:         queries,
		Current: obsrv.Placement{
			InDRAM:      current,
			MemoryBytes: core.MemoryUsed(w, current),
			ModeledCost: curCost,
		},
		Recommended: obsrv.Placement{
			InDRAM:      rec.InDRAM,
			MemoryBytes: rec.Memory,
			ModeledCost: rec.EstimatedCost,
		},
		CostDelta: rec.EstimatedCost - curCost,
		Changed:   !slices.Equal(current, rec.InDRAM),
	}
	if curCost > 0 {
		rep.Improvement = (curCost - rec.EstimatedCost) / curCost
	}
	access := w.AccessCounts()
	for i, c := range w.Columns {
		rep.Columns = append(rep.Columns, obsrv.AdvisorColumn{
			Index:             i,
			Name:              c.Name,
			SizeBytes:         c.Size,
			Selectivity:       c.Selectivity,
			SelectivitySource: sources[i],
			ObservedSamples:   samples[i],
			AccessCount:       access[i],
			InDRAMNow:         current[i],
			InDRAMRecommended: rec.InDRAM[i],
		})
	}
	return rep, nil
}
