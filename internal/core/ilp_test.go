package core

import (
	"math"
	"testing"
)

func example(t *testing.T, n, q int, seed int64) *Workload {
	t.Helper()
	w, err := Example1(Example1Config{Columns: n, Queries: q, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func relativeBudgets(w *Workload, fractions []float64) []int64 {
	total := w.TotalSize()
	budgets := make([]int64, len(fractions))
	for i, f := range fractions {
		budgets[i] = int64(f * float64(total))
	}
	return budgets
}

func TestOptimalILPRespectsBudget(t *testing.T) {
	w := example(t, 30, 200, 1)
	p := DefaultCostParams()
	for _, budget := range relativeBudgets(w, []float64{0, 0.1, 0.25, 0.5, 0.75, 1}) {
		alloc, err := OptimalILP(w, p, budget)
		if err != nil {
			t.Fatal(err)
		}
		if alloc.Memory > budget {
			t.Errorf("budget %d: allocation uses %d bytes", budget, alloc.Memory)
		}
		if got := MemoryUsed(w, alloc.InDRAM); got != alloc.Memory {
			t.Errorf("budget %d: reported memory %d, recomputed %d", budget, alloc.Memory, got)
		}
		if got := ScanCost(w, p, alloc.InDRAM); math.Abs(got-alloc.Cost) > 1e-9*got {
			t.Errorf("budget %d: reported cost %g, recomputed %g", budget, alloc.Cost, got)
		}
	}
}

func TestOptimalILPMonotoneInBudget(t *testing.T) {
	w := example(t, 40, 300, 2)
	p := DefaultCostParams()
	prev := math.Inf(1)
	for _, budget := range relativeBudgets(w, []float64{0, 0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1}) {
		alloc, err := OptimalILP(w, p, budget)
		if err != nil {
			t.Fatal(err)
		}
		if alloc.Cost > prev+1e-9 {
			t.Errorf("budget %d: cost %g above smaller-budget cost %g", budget, alloc.Cost, prev)
		}
		prev = alloc.Cost
	}
}

func TestOptimalILPBeatsOrMatchesEverything(t *testing.T) {
	w := example(t, 30, 250, 3)
	p := DefaultCostParams()
	for _, budget := range relativeBudgets(w, []float64{0.1, 0.3, 0.5, 0.7}) {
		opt, err := OptimalILP(w, p, budget)
		if err != nil {
			t.Fatal(err)
		}
		others := []func() (Allocation, error){
			func() (Allocation, error) { return ExplicitForBudget(w, p, budget, nil, 0) },
			func() (Allocation, error) { return FillingForBudget(w, p, budget, nil, 0) },
			func() (Allocation, error) { return GreedyRatio(w, p, budget) },
			func() (Allocation, error) { return SolveHeuristic(w, p, budget, MethodFrequency) },
			func() (Allocation, error) { return SolveHeuristic(w, p, budget, MethodSelectivity) },
			func() (Allocation, error) { return SolveHeuristic(w, p, budget, MethodSelectivityFrequency) },
		}
		for i, f := range others {
			alloc, err := f()
			if err != nil {
				t.Fatal(err)
			}
			if alloc.Cost < opt.Cost-1e-9*opt.Cost {
				t.Errorf("budget %d: method %d cost %g beats ILP %g", budget, i, alloc.Cost, opt.Cost)
			}
		}
	}
}

func TestOptimalILPExhaustiveCrossCheck(t *testing.T) {
	// Brute force over all 2^12 allocations on a small instance.
	w := example(t, 12, 60, 4)
	p := DefaultCostParams()
	for _, budget := range relativeBudgets(w, []float64{0.2, 0.5, 0.8}) {
		opt, err := OptimalILP(w, p, budget)
		if err != nil {
			t.Fatal(err)
		}
		best := math.Inf(1)
		x := make([]bool, len(w.Columns))
		for mask := 0; mask < 1<<len(w.Columns); mask++ {
			for i := range x {
				x[i] = mask&(1<<i) != 0
			}
			if MemoryUsed(w, x) > budget {
				continue
			}
			if c := ScanCost(w, p, x); c < best {
				best = c
			}
		}
		if math.Abs(opt.Cost-best) > 1e-9*best {
			t.Errorf("budget %d: ILP cost %g, brute force %g", budget, opt.Cost, best)
		}
	}
}

func TestPinnedColumnsAlwaysResident(t *testing.T) {
	w := example(t, 20, 100, 5)
	w.Columns[3].Pinned = true
	w.Columns[17].Pinned = true
	p := DefaultCostParams()
	budget := w.Columns[3].Size + w.Columns[17].Size + 1024
	for _, solve := range []func() (Allocation, error){
		func() (Allocation, error) { return OptimalILP(w, p, budget) },
		func() (Allocation, error) { return ExplicitForBudget(w, p, budget, nil, 0) },
		func() (Allocation, error) { return FillingForBudget(w, p, budget, nil, 0) },
		func() (Allocation, error) { return GreedyRatio(w, p, budget) },
		func() (Allocation, error) { return SolveHeuristic(w, p, budget, MethodFrequency) },
	} {
		alloc, err := solve()
		if err != nil {
			t.Fatal(err)
		}
		if !alloc.InDRAM[3] || !alloc.InDRAM[17] {
			t.Errorf("pinned columns not DRAM-resident: %v %v", alloc.InDRAM[3], alloc.InDRAM[17])
		}
	}
}

func TestPinnedColumnsExceedingBudgetFail(t *testing.T) {
	w := example(t, 10, 50, 6)
	w.Columns[0].Pinned = true
	p := DefaultCostParams()
	if _, err := OptimalILP(w, p, w.Columns[0].Size-1); err == nil {
		t.Error("ILP accepted budget below pinned size")
	}
	if _, err := ExplicitForBudget(w, p, w.Columns[0].Size-1, nil, 0); err == nil {
		t.Error("explicit solution accepted budget below pinned size")
	}
}

func TestOptimalILPRejectsBadInputs(t *testing.T) {
	w := example(t, 5, 10, 7)
	p := DefaultCostParams()
	if _, err := OptimalILP(w, p, -1); err == nil {
		t.Error("accepted negative budget")
	}
	if _, err := OptimalILPRealloc(w, p, 100, []bool{true}, 1); err == nil {
		t.Error("accepted mismatched current allocation length")
	}
	bad := &Workload{Columns: []Column{{Size: -5, Selectivity: 0.5}}}
	if _, err := OptimalILP(bad, p, 100); err == nil {
		t.Error("accepted invalid workload")
	}
}

func TestZeroBudgetEvictsEverything(t *testing.T) {
	w := example(t, 15, 80, 8)
	p := DefaultCostParams()
	alloc, err := OptimalILP(w, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if alloc.CountInDRAM() != 0 {
		t.Errorf("zero budget placed %d columns in DRAM", alloc.CountInDRAM())
	}
}

func TestFullBudgetKeepsAllUsefulColumns(t *testing.T) {
	w := example(t, 15, 80, 9)
	p := DefaultCostParams()
	alloc, err := OptimalILP(w, p, w.TotalSize())
	if err != nil {
		t.Fatal(err)
	}
	benefits := Benefits(w, p)
	for i, b := range benefits {
		if b > 0 && !alloc.InDRAM[i] {
			t.Errorf("column %d has positive benefit %g but was evicted under full budget", i, b)
		}
	}
}
