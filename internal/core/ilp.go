package core

import (
	"fmt"

	"tierdb/internal/solver"
)

// OptimalILP solves the integer problem (2)-(3): minimize F(x) subject
// to M(x) <= budget, x in {0,1}^N. Pinned columns are forced into DRAM
// and charged against the budget. The result is the exact optimum; for
// different budgets these optima form the Pareto-efficient frontier of
// Figure 3.
//
// Because scan order in the cost model depends only on selectivities,
// F decomposes as F(0) + sum_i a_i*S_i*x_i, so the ILP is a 0/1 knapsack
// with profits -a_i*S_i and weights a_i, solved exactly by branch and
// bound.
func OptimalILP(w *Workload, p CostParams, budget int64) (Allocation, error) {
	return OptimalILPRealloc(w, p, budget, nil, 0)
}

// OptimalILPRealloc solves the reallocation-aware integer problem
// (6)-(7) under a hard budget: minimize F(x) + beta * sum_i a_i*|x_i-y_i|
// subject to M(x) <= budget. current is the present allocation y (nil
// means nothing is DRAM-resident yet); beta is the per-byte cost of
// moving a column between tiers.
func OptimalILPRealloc(w *Workload, p CostParams, budget int64, current []bool, beta float64) (Allocation, error) {
	if err := w.Validate(); err != nil {
		return Allocation{}, err
	}
	if current != nil && len(current) != len(w.Columns) {
		return Allocation{}, fmt.Errorf("core: current allocation has %d entries, want %d", len(current), len(w.Columns))
	}
	if budget < 0 {
		return Allocation{}, fmt.Errorf("core: negative budget %d", budget)
	}
	coeff := Coefficients(w, p)
	items := make([]solver.Item, len(w.Columns))
	for i, c := range w.Columns {
		// Objective change of setting x_i=1 instead of 0 is
		// a_i*(S_i + beta*(1-2*y_i)); its negation is the knapsack
		// profit.
		y := 0.0
		if current != nil && current[i] {
			y = 1
		}
		items[i] = solver.Item{
			Value:     -float64(c.Size) * (coeff[i] + beta*(1-2*y)),
			Weight:    c.Size,
			Mandatory: c.Pinned,
		}
	}
	// A tiny relative MIP gap (like commercial solvers' default
	// tolerances) keeps pathologically correlated instances tractable
	// without measurably affecting solution quality.
	res, err := solver.Knapsack01Opts(items, budget, solver.Options{RelativeGap: 1e-6})
	if err != nil {
		return Allocation{}, fmt.Errorf("core: ILP solve failed: %w", err)
	}
	return makeAllocation(w, p, res.Take), nil
}

// ContinuousPenalty solves the penalty formulation (5): minimize
// F(x) + alpha*M(x) with x relaxed to [0,1]^N. By Lemma 1 the optimum is
// integer: column i is DRAM-resident iff S_i + alpha < 0 (pinned columns
// are always resident). By Theorem 1 the result is Pareto-efficient.
func ContinuousPenalty(w *Workload, p CostParams, alpha float64) (Allocation, error) {
	return ContinuousPenaltyRealloc(w, p, alpha, nil, 0)
}

// ContinuousPenaltyRealloc solves the reallocation-aware penalty
// problem (6): column i is DRAM-resident iff
// S_i + alpha + beta*(1-2*y_i) < 0 (Theorem 2, case analysis).
func ContinuousPenaltyRealloc(w *Workload, p CostParams, alpha float64, current []bool, beta float64) (Allocation, error) {
	if err := w.Validate(); err != nil {
		return Allocation{}, err
	}
	if current != nil && len(current) != len(w.Columns) {
		return Allocation{}, fmt.Errorf("core: current allocation has %d entries, want %d", len(current), len(w.Columns))
	}
	coeff := Coefficients(w, p)
	x := make([]bool, len(w.Columns))
	for i, c := range w.Columns {
		y := 0.0
		if current != nil && current[i] {
			y = 1
		}
		x[i] = c.Pinned || coeff[i]+alpha+beta*(1-2*y) < 0
	}
	return makeAllocation(w, p, x), nil
}

// ContinuousForBudget searches for the penalty parameter alpha whose
// associated allocation just satisfies the budget (paper, end of
// Section III-A). It evaluates the critical alpha values of all columns,
// which is exactly what the explicit solution of Theorem 2 exploits; the
// returned allocation is the largest Pareto point fitting the budget.
func ContinuousForBudget(w *Workload, p CostParams, budget int64) (Allocation, error) {
	if err := w.Validate(); err != nil {
		return Allocation{}, err
	}
	order, err := PerformanceOrder(w, p, nil, 0)
	if err != nil {
		return Allocation{}, err
	}
	x, used, err := placePinned(w, budget)
	if err != nil {
		return Allocation{}, err
	}
	for _, i := range order {
		if x[i] {
			continue
		}
		if used+w.Columns[i].Size > budget {
			break // Pareto point boundary: stop at the first non-fitting column.
		}
		x[i] = true
		used += w.Columns[i].Size
	}
	return makeAllocation(w, p, x), nil
}
