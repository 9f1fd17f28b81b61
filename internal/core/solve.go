package core

import "fmt"

// Method selects one member of the model's family of solutions: the
// exact integer program, the explicit solution of Theorem 2 and its
// refinements, or one of the paper's benchmark heuristics H1-H3. The
// zero value is the explicit solution.
type Method int

const (
	// MethodExplicit computes the Pareto-optimal explicit solution of
	// Theorem 2 (no solver, milliseconds even for tens of thousands of
	// columns).
	MethodExplicit Method = iota
	// MethodILP solves the integer program (2)-(3) exactly — the
	// efficient frontier.
	MethodILP
	// MethodFilling is the explicit solution plus the filling
	// heuristic of Remark 2.
	MethodFilling
	// MethodGreedyRatio is the general marginal-gain principle of
	// Remark 3 (re-evaluates the cost model each step).
	MethodGreedyRatio
	// MethodFrequency is benchmark heuristic H1: keep the most
	// frequently filtered columns (largest g_i first), cf.
	// AutoAdmin-style co-occurrence counting.
	MethodFrequency
	// MethodSelectivity is benchmark heuristic H2: keep the most
	// restrictive columns (smallest s_i first).
	MethodSelectivity
	// MethodSelectivityFrequency is benchmark heuristic H3: keep
	// columns with the smallest ratio s_i/g_i first (cf. reactive
	// unload).
	MethodSelectivityFrequency
)

// String returns the paper's name for the method.
func (m Method) String() string {
	switch m {
	case MethodExplicit:
		return "explicit (Theorem 2)"
	case MethodILP:
		return "ILP (optimal)"
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

// Solve places w's columns within budget bytes of DRAM by method m.
// current is the incumbent allocation y and beta the per-byte
// reallocation cost (Section III-D); the ILP, explicit and filling
// methods honour them, the greedy ratio and H1-H3 ignore them.
func Solve(w *Workload, p CostParams, budget int64, m Method, current []bool, beta float64) (Allocation, error) {
	switch m {
	case MethodExplicit:
		return ExplicitForBudget(w, p, budget, current, beta)
	case MethodILP:
		return OptimalILPRealloc(w, p, budget, current, beta)
	case MethodFilling:
		return FillingForBudget(w, p, budget, current, beta)
	case MethodGreedyRatio:
		return GreedyRatio(w, p, budget)
	case MethodFrequency, MethodSelectivity, MethodSelectivityFrequency:
		return SolveHeuristic(w, p, budget, m)
	default:
		return Allocation{}, fmt.Errorf("core: unknown method %d", int(m))
	}
}

// placePinned starts an allocation with every pinned column in DRAM
// and returns it with the bytes it uses, or an error when the pins
// alone exceed the budget.
func placePinned(w *Workload, budget int64) ([]bool, int64, error) {
	x := make([]bool, len(w.Columns))
	var used int64
	for i, c := range w.Columns {
		if c.Pinned {
			x[i] = true
			used += c.Size
		}
	}
	if used > budget {
		return nil, 0, fmt.Errorf("core: pinned columns need %d bytes, budget is %d", used, budget)
	}
	return x, used, nil
}
