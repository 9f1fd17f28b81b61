package tierdb

import (
	"fmt"

	"tierdb/internal/core"
	"tierdb/internal/workload"
)

// Re-exported column selection model (the paper's primary contribution,
// Section III). These aliases let applications use the optimization
// model standalone, without the storage engine.
type (
	// Workload is the column selection input: columns and queries.
	Workload = core.Workload
	// WorkloadColumn describes one column of the model.
	WorkloadColumn = core.Column
	// WorkloadQuery is one plan: filtered columns and frequency.
	WorkloadQuery = core.Query
	// CostParams calibrates the bandwidth-centric cost model.
	CostParams = core.CostParams
	// Allocation is a placement decision with its modeled cost.
	Allocation = core.Allocation
	// ParetoPoint is one point of the efficient frontier.
	ParetoPoint = core.ParetoPoint
)

// Method selects the placement algorithm.
type Method int

const (
	// MethodILP solves the integer program (2)-(3) exactly — the
	// efficient frontier.
	MethodILP Method = iota
	// MethodExplicit computes the Pareto-optimal explicit solution of
	// Theorem 2 (no solver, milliseconds even for tens of thousands of
	// columns).
	MethodExplicit
	// MethodFilling is the explicit solution plus the filling
	// heuristic of Remark 2.
	MethodFilling
	// MethodGreedyRatio is the general marginal-gain principle of
	// Remark 3 (re-evaluates the cost model each step).
	MethodGreedyRatio
	// MethodFrequency is benchmark heuristic H1 (most-used columns
	// first).
	MethodFrequency
	// MethodSelectivity is benchmark heuristic H2 (most restrictive
	// columns first).
	MethodSelectivity
	// MethodSelectivityFrequency is benchmark heuristic H3
	// (selectivity/frequency ratio).
	MethodSelectivityFrequency
)

// String names the method.
func (m Method) String() string {
	switch m {
	case MethodILP:
		return "ILP (optimal)"
	case MethodExplicit:
		return "explicit (Theorem 2)"
	case MethodFilling:
		return "explicit + filling"
	case MethodGreedyRatio:
		return "greedy ratio (Remark 3)"
	case MethodFrequency:
		return "H1 (frequency)"
	case MethodSelectivity:
		return "H2 (selectivity)"
	case MethodSelectivityFrequency:
		return "H3 (selectivity/frequency)"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// PlacementOptions parameterizes RecommendLayout and Solve.
type PlacementOptions struct {
	// Budget is the DRAM budget in bytes; alternatively set
	// RelativeBudget.
	Budget int64
	// RelativeBudget is the budget as a fraction of the total column
	// bytes (w in the paper); used when Budget is zero.
	RelativeBudget float64
	// Method selects the algorithm; default MethodExplicit.
	Method Method
	// Beta is the per-byte reallocation cost (Section III-D); zero
	// ignores the current placement.
	Beta float64
	// Current is the current allocation y for reallocation-aware
	// optimization; nil derives it from the table layout (in
	// RecommendLayout) or treats everything as evicted (in Solve).
	Current []bool
	// Pinned lists column names forced to stay DRAM-resident.
	Pinned []string
	// Costs calibrates the cost model; zero value selects defaults.
	Costs CostParams
}

// Layout is a recommended placement together with its model estimates.
type Layout struct {
	// InDRAM is the per-column decision (index-aligned with the table
	// schema / workload columns).
	InDRAM []bool
	// EstimatedCost is the modeled workload scan cost F(x).
	EstimatedCost float64
	// Memory is M(x) in bytes.
	Memory int64
	// RelativePerformance is minimal cost / EstimatedCost (<= 1).
	RelativePerformance float64
}

// Solve runs the column selection model on a standalone workload.
func Solve(w *Workload, opts PlacementOptions) (Layout, error) {
	costs := opts.Costs
	if costs.CMM == 0 && costs.CSS == 0 {
		costs = core.DefaultCostParams()
	}
	budget := resolveBudget(w, opts.Budget, opts.RelativeBudget, nil)
	if opts.Current != nil && len(opts.Current) != len(w.Columns) {
		return Layout{}, fmt.Errorf("tierdb: current allocation has %d entries, want %d", len(opts.Current), len(w.Columns))
	}

	var (
		alloc core.Allocation
		err   error
	)
	switch opts.Method {
	case MethodILP:
		alloc, err = core.OptimalILPRealloc(w, costs, budget, opts.Current, opts.Beta)
	case MethodExplicit:
		alloc, err = core.ExplicitForBudget(w, costs, budget, opts.Current, opts.Beta)
	case MethodFilling:
		alloc, err = core.FillingForBudget(w, costs, budget, opts.Current, opts.Beta)
	case MethodGreedyRatio:
		alloc, err = core.GreedyRatio(w, costs, budget)
	case MethodFrequency:
		alloc, err = core.SolveHeuristic(w, costs, budget, core.HeuristicFrequency)
	case MethodSelectivity:
		alloc, err = core.SolveHeuristic(w, costs, budget, core.HeuristicSelectivity)
	case MethodSelectivityFrequency:
		alloc, err = core.SolveHeuristic(w, costs, budget, core.HeuristicSelectivityFrequency)
	default:
		return Layout{}, fmt.Errorf("tierdb: unknown method %d", int(opts.Method))
	}
	if err != nil {
		return Layout{}, err
	}
	return Layout{
		InDRAM:              alloc.InDRAM,
		EstimatedCost:       alloc.Cost,
		Memory:              alloc.Memory,
		RelativePerformance: core.RelativePerformance(w, costs, alloc),
	}, nil
}

// resolveBudget is the one rule for the DRAM budget A of a solve: the
// explicit byte count, else the relative budget w times the total
// column bytes, else — when a current placement is given — that
// placement's modeled footprint ("spend these same bytes better").
func resolveBudget(w *Workload, bytes int64, relative float64, current []bool) int64 {
	if bytes == 0 && relative > 0 {
		bytes = int64(relative * float64(w.TotalSize()))
	}
	if bytes == 0 && current != nil {
		bytes = core.MemoryUsed(w, current)
	}
	return bytes
}

// model builds the solver's input — the paper's (a_i, s_i, q_j, b_j) —
// from the table's statistics and a plan list: the lifetime plan cache,
// a closed workload window or a forecast template. It is the only place
// the root package assembles a core.Workload for a table. Selectivities
// are the static 1/distinct estimates; observe overlays runtime ones.
func (t *Table) model(plans []workload.Plan, pinned []string) (*Workload, error) {
	pinnedIdx, err := t.resolve(pinned)
	if err != nil {
		return nil, err
	}
	return workload.ExtractPlans(t.inner, plans, pinnedIdx)
}

// observe replaces, in w, the static selectivity of every column that
// has at least minSamples runtime observations with its observed EWMA,
// and reports per column the selectivity's source ("estimated" or
// "observed") and sample count, plus how many columns were replaced.
func (t *Table) observe(w *Workload, minSamples int) (sources []string, samples []int64, observed int) {
	sources = make([]string, len(w.Columns))
	samples = make([]int64, len(w.Columns))
	for i := range w.Columns {
		sources[i] = "estimated"
		if sel, n := t.inner.ObservedSelectivity(i); n >= int64(minSamples) && sel > 0 {
			w.Columns[i].Selectivity = sel
			sources[i], samples[i] = "observed", n
			observed++
		}
	}
	return sources, samples, observed
}

// ExtractWorkload builds the column selection input from the table's
// statistics and its recorded plan cache.
func (t *Table) ExtractWorkload(pinned []string) (*Workload, error) {
	return t.model(t.plans.Plans(), pinned)
}

// RecommendLayout analyzes the table's plan cache and returns the
// placement for the requested budget. Columns never filtered are
// evicted first (they have zero benefit); the remaining placement
// follows the selected method. When Beta > 0 and Current is nil, the
// table's present layout serves as the reallocation baseline.
func (t *Table) RecommendLayout(opts PlacementOptions) (Layout, error) {
	w, err := t.ExtractWorkload(opts.Pinned)
	if err != nil {
		return Layout{}, err
	}
	if opts.Beta > 0 && opts.Current == nil {
		opts.Current = t.inner.Layout()
	}
	opts.Pinned = nil // already encoded in the workload
	return Solve(w, opts)
}

// ApplyLayout re-tiers the table's main partition to the recommendation
// (a merge pass; the paper schedules this in maintenance windows).
func (t *Table) ApplyLayout(l Layout) error {
	if err := t.inner.ApplyLayout(l.InDRAM); err != nil {
		return err
	}
	if t.db.wal != nil {
		return t.db.wal.AppendLayout(t.Name(), l.InDRAM)
	}
	return nil
}

// Frontier sweeps relative budgets and returns the efficient frontier
// of the table's workload (Figure 3). Method must be one of MethodILP,
// MethodExplicit or MethodFilling.
func (t *Table) Frontier(relativeBudgets []float64, m Method) ([]ParetoPoint, error) {
	w, err := t.ExtractWorkload(nil)
	if err != nil {
		return nil, err
	}
	return FrontierOf(w, relativeBudgets, m)
}

// FrontierOf computes frontier points on a standalone workload.
func FrontierOf(w *Workload, relativeBudgets []float64, m Method) ([]ParetoPoint, error) {
	var fm core.FrontierMethod
	switch m {
	case MethodILP:
		fm = core.FrontierILP
	case MethodExplicit:
		fm = core.FrontierContinuous
	case MethodFilling:
		fm = core.FrontierFilling
	default:
		return nil, fmt.Errorf("tierdb: frontier supports ILP, explicit and filling; got %s", m)
	}
	return core.Frontier(w, core.DefaultCostParams(), relativeBudgets, fm)
}

// resolve maps column names to schema positions.
func (t *Table) resolve(names []string) ([]int, error) {
	out := make([]int, 0, len(names))
	for _, n := range names {
		c := t.inner.Schema().IndexOf(n)
		if c < 0 {
			return nil, fmt.Errorf("tierdb: table %s has no column %q", t.inner.Name(), n)
		}
		out = append(out, c)
	}
	return out, nil
}
