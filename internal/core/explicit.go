package core

import (
	"fmt"
	"sort"
)

// PerformanceOrder computes the paper's "performance order" o_i
// (Remark 1, Theorem 2) explicitly, without solving any optimization
// program: each column's critical penalty alpha_i = -(S_i +
// beta*(1-2*y_i)) is the alpha value at which the column enters the
// optimal DRAM allocation. Sorting by descending critical alpha yields
// the fixed order in which columns join optimal allocations as the
// budget grows.
//
// Only columns that ever enter an allocation for some alpha > 0 (i.e.
// with positive critical alpha) appear in the order; never-filtered
// columns (S_i = 0, no reallocation pull) are excluded, matching the
// paper's trivial preprocessing step. Pinned columns are excluded too;
// callers place them unconditionally.
func PerformanceOrder(w *Workload, p CostParams, current []bool, beta float64) ([]int, error) {
	if current != nil && len(current) != len(w.Columns) {
		return nil, fmt.Errorf("core: current allocation has %d entries, want %d", len(current), len(w.Columns))
	}
	coeff := Coefficients(w, p)
	type entry struct {
		idx      int
		critical float64
	}
	entries := make([]entry, 0, len(w.Columns))
	for i := range w.Columns {
		if w.Columns[i].Pinned {
			continue
		}
		y := 0.0
		if current != nil && current[i] {
			y = 1
		}
		critical := -(coeff[i] + beta*(1-2*y))
		if critical > 0 {
			entries = append(entries, entry{idx: i, critical: critical})
		}
	}
	sort.Slice(entries, func(a, b int) bool {
		if entries[a].critical != entries[b].critical {
			return entries[a].critical > entries[b].critical
		}
		return entries[a].idx < entries[b].idx
	})
	order := make([]int, len(entries))
	for i, e := range entries {
		order[i] = e.idx
	}
	return order, nil
}

// ExplicitForBudget is the explicit solution of Theorem 2 ("Schlosser
// heuristic"): place pinned columns, then walk the performance order and
// stop at the first column that no longer fits the budget. The result is
// the largest Pareto-optimal allocation admissible for the budget and is
// computed in O(N log N + workload), as fast as the simple heuristics.
func ExplicitForBudget(w *Workload, p CostParams, budget int64, current []bool, beta float64) (Allocation, error) {
	return explicitAllocate(w, p, budget, current, beta, false)
}

// FillingForBudget is the explicit solution combined with the filling
// heuristic of Remark 2: after the first column of the performance order
// no longer fits, later (smaller) columns that still fit are placed too.
// This closely tracks the optimal integer solution (Figure 6(c)).
func FillingForBudget(w *Workload, p CostParams, budget int64, current []bool, beta float64) (Allocation, error) {
	return explicitAllocate(w, p, budget, current, beta, true)
}

func explicitAllocate(w *Workload, p CostParams, budget int64, current []bool, beta float64, fill bool) (Allocation, error) {
	if err := w.Validate(); err != nil {
		return Allocation{}, err
	}
	order, err := PerformanceOrder(w, p, current, beta)
	if err != nil {
		return Allocation{}, err
	}
	x, used, err := placePinned(w, budget)
	if err != nil {
		return Allocation{}, err
	}
	for _, i := range order {
		if used+w.Columns[i].Size > budget {
			if fill {
				continue
			}
			break
		}
		x[i] = true
		used += w.Columns[i].Size
	}
	return makeAllocation(w, p, x), nil
}

// GreedyRatio implements the general recursive principle of Remark 3:
// repeatedly select the column maximizing additional performance per
// additional DRAM byte until the budget is exhausted. It re-evaluates
// the true cost function after every step, so unlike ExplicitForBudget
// it does not rely on the linear decomposition and carries over to
// arbitrary (e.g. optimizer-estimated) cost functions. For the paper's
// linear scan cost model the marginal gains are constant and GreedyRatio
// reproduces the filling solution.
func GreedyRatio(w *Workload, p CostParams, budget int64) (Allocation, error) {
	if err := w.Validate(); err != nil {
		return Allocation{}, err
	}
	x, used, err := placePinned(w, budget)
	if err != nil {
		return Allocation{}, err
	}
	cost := ScanCost(w, p, x)
	for {
		bestIdx := -1
		bestRatio := 0.0
		bestCost := 0.0
		for i, c := range w.Columns {
			if x[i] || used+c.Size > budget {
				continue
			}
			x[i] = true
			trial := ScanCost(w, p, x)
			x[i] = false
			gain := cost - trial
			if gain <= 0 {
				continue
			}
			ratio := gain / float64(c.Size)
			if ratio > bestRatio {
				bestRatio = ratio
				bestIdx = i
				bestCost = trial
			}
		}
		if bestIdx < 0 {
			break
		}
		x[bestIdx] = true
		used += w.Columns[bestIdx].Size
		cost = bestCost
	}
	return Allocation{InDRAM: x, Cost: cost, Memory: used}, nil
}
