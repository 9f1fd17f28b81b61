package core

import "fmt"

// ParetoPoint is one point of the efficient frontier: an allocation
// together with the relative budget it was computed for.
type ParetoPoint struct {
	// Budget is the absolute DRAM budget A in bytes.
	Budget int64
	// RelativeBudget is w = A / TotalSize.
	RelativeBudget float64
	// Allocation is the optimal (or heuristic) allocation for Budget.
	Allocation Allocation
	// RelativePerformance is minimal cost / Allocation.Cost (<= 1).
	RelativePerformance float64
}

// Frontier computes allocations for a sweep of relative budgets
// w in [0,1]. It returns one ParetoPoint per requested budget. Method
// must be MethodILP (the true efficient frontier, Figure 3),
// MethodExplicit (Pareto-efficient points, each the largest prefix
// allocation fitting its budget, Theorem 1) or MethodFilling.
func Frontier(w *Workload, p CostParams, relativeBudgets []float64, m Method) ([]ParetoPoint, error) {
	if m != MethodILP && m != MethodExplicit && m != MethodFilling {
		return nil, fmt.Errorf("core: frontier supports ILP, explicit and filling; got %s", m)
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	total := w.TotalSize()
	points := make([]ParetoPoint, 0, len(relativeBudgets))
	for _, rb := range relativeBudgets {
		budget := int64(rb * float64(total))
		alloc, err := Solve(w, p, budget, m, nil, 0)
		if err != nil {
			return nil, err
		}
		points = append(points, ParetoPoint{
			Budget:              budget,
			RelativeBudget:      rb,
			Allocation:          alloc,
			RelativePerformance: RelativePerformance(w, p, alloc),
		})
	}
	return points, nil
}
