package core

import (
	"math"
	"testing"
)

// TestLemma1PenaltySolutionsAreInteger is implicit in our representation
// (decision vectors are boolean); what we verify instead is the penalty
// solution's optimality: for every alpha, no other 0/1 vector has lower
// F(x) + alpha*M(x) on a brute-forceable instance.
func TestPenaltySolutionOptimal(t *testing.T) {
	w := example(t, 10, 60, 21)
	p := DefaultCostParams()
	coeff := Coefficients(w, p)
	// Probe alphas spanning the critical values.
	alphas := []float64{0}
	for _, s := range coeff {
		alphas = append(alphas, -s/2, -s, -s*2)
	}
	x := make([]bool, len(w.Columns))
	for _, alpha := range alphas {
		if alpha < 0 {
			continue
		}
		got, err := ContinuousPenalty(w, p, alpha)
		if err != nil {
			t.Fatal(err)
		}
		gotObj := got.Cost + alpha*float64(got.Memory)
		for mask := 0; mask < 1<<len(w.Columns); mask++ {
			for i := range x {
				x[i] = mask&(1<<i) != 0
			}
			obj := ScanCost(w, p, x) + alpha*float64(MemoryUsed(w, x))
			if obj < gotObj-1e-9*math.Abs(gotObj)-1e-15 {
				t.Fatalf("alpha=%g: found better objective %g < %g", alpha, obj, gotObj)
			}
		}
	}
}

// TestTheorem1ParetoEfficiency: penalty solutions for alpha > 0 are not
// dominated by any integer-feasible allocation.
func TestTheorem1ParetoEfficiency(t *testing.T) {
	w := example(t, 10, 60, 22)
	p := DefaultCostParams()
	coeff := Coefficients(w, p)
	x := make([]bool, len(w.Columns))
	for _, s := range coeff {
		alpha := -s * 0.9
		if alpha <= 0 {
			continue
		}
		cand, err := ContinuousPenalty(w, p, alpha)
		if err != nil {
			t.Fatal(err)
		}
		for mask := 0; mask < 1<<len(w.Columns); mask++ {
			for i := range x {
				x[i] = mask&(1<<i) != 0
			}
			cost := ScanCost(w, p, x)
			mem := MemoryUsed(w, x)
			if cost < cand.Cost-1e-12 && mem <= cand.Memory ||
				mem < cand.Memory && cost <= cand.Cost+1e-12 {
				t.Fatalf("alpha=%g: allocation (cost=%g, mem=%d) dominates penalty solution (cost=%g, mem=%d)",
					alpha, cost, mem, cand.Cost, cand.Memory)
			}
		}
	}
}

// TestRemark1RecursiveStructure: a column that is part of the optimal
// continuous allocation for some alpha stays in for every smaller alpha
// (equivalently, larger budgets).
func TestRemark1RecursiveStructure(t *testing.T) {
	w := example(t, 30, 200, 23)
	p := DefaultCostParams()
	coeff := Coefficients(w, p)
	maxAlpha := 0.0
	for _, s := range coeff {
		if -s > maxAlpha {
			maxAlpha = -s
		}
	}
	var prev Allocation
	first := true
	for step := 20; step >= 0; step-- {
		alpha := maxAlpha * float64(step) / 20 * 1.01
		alloc, err := ContinuousPenalty(w, p, alpha)
		if err != nil {
			t.Fatal(err)
		}
		if !first {
			for i := range prev.InDRAM {
				if prev.InDRAM[i] && !alloc.InDRAM[i] {
					t.Fatalf("alpha=%g: column %d left DRAM as alpha decreased", alpha, i)
				}
			}
		}
		prev, first = alloc, false
	}
}

// TestExplicitMatchesContinuous: ExplicitForBudget (Theorem 2, computed
// from the performance order) reproduces ContinuousForBudget (computed
// from the alpha search) for any budget.
func TestExplicitMatchesContinuous(t *testing.T) {
	w := example(t, 40, 300, 24)
	p := DefaultCostParams()
	for _, f := range []float64{0, 0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 0.9, 1} {
		budget := int64(f * float64(w.TotalSize()))
		exp, err := ExplicitForBudget(w, p, budget, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		cont, err := ContinuousForBudget(w, p, budget)
		if err != nil {
			t.Fatal(err)
		}
		for i := range exp.InDRAM {
			if exp.InDRAM[i] != cont.InDRAM[i] {
				t.Fatalf("budget %d: explicit and continuous disagree on column %d", budget, i)
			}
		}
	}
}

// TestExplicitSolutionsOnILPFrontier: the explicit solution for a budget
// equal to its own memory use coincides in cost with the ILP optimum —
// that is, explicit solutions lie on the efficient frontier (Theorem 1 +
// Theorem 2).
func TestExplicitSolutionsOnILPFrontier(t *testing.T) {
	w := example(t, 25, 150, 25)
	p := DefaultCostParams()
	for _, f := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		budget := int64(f * float64(w.TotalSize()))
		exp, err := ExplicitForBudget(w, p, budget, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := OptimalILP(w, p, exp.Memory)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(opt.Cost-exp.Cost) > 1e-9*opt.Cost {
			t.Errorf("budget %d: explicit cost %g off frontier (ILP %g at same memory)", budget, exp.Cost, opt.Cost)
		}
	}
}

func TestPerformanceOrderSortedByCriticalAlpha(t *testing.T) {
	w := example(t, 30, 200, 26)
	p := DefaultCostParams()
	order, err := PerformanceOrder(w, p, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	coeff := Coefficients(w, p)
	for i := 1; i < len(order); i++ {
		if -coeff[order[i-1]] < -coeff[order[i]] {
			t.Errorf("performance order not sorted at %d: %g < %g", i, -coeff[order[i-1]], -coeff[order[i]])
		}
	}
	seen := make(map[int]bool)
	for _, idx := range order {
		if seen[idx] {
			t.Errorf("column %d appears twice in performance order", idx)
		}
		seen[idx] = true
	}
}

func TestPerformanceOrderExcludesUnfiltered(t *testing.T) {
	w := &Workload{
		Columns: []Column{
			{Name: "used", Size: 10, Selectivity: 0.5},
			{Name: "unused", Size: 10, Selectivity: 0.5},
		},
		Queries: []Query{{Columns: []int{0}, Frequency: 5}},
	}
	order, err := PerformanceOrder(w, DefaultCostParams(), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 1 || order[0] != 0 {
		t.Errorf("performance order = %v, want [0]", order)
	}
}

func TestFillingAtLeastAsGoodAsExplicit(t *testing.T) {
	w := example(t, 40, 300, 27)
	p := DefaultCostParams()
	for _, f := range []float64{0.05, 0.15, 0.3, 0.5, 0.8} {
		budget := int64(f * float64(w.TotalSize()))
		exp, err := ExplicitForBudget(w, p, budget, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		fill, err := FillingForBudget(w, p, budget, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if fill.Cost > exp.Cost+1e-9*exp.Cost {
			t.Errorf("budget %d: filling cost %g worse than explicit %g", budget, fill.Cost, exp.Cost)
		}
		if fill.Memory > budget {
			t.Errorf("budget %d: filling used %d bytes", budget, fill.Memory)
		}
	}
}

func TestGreedyRatioMatchesFillingOnLinearModel(t *testing.T) {
	w := example(t, 20, 120, 28)
	p := DefaultCostParams()
	for _, f := range []float64{0.2, 0.5, 0.8} {
		budget := int64(f * float64(w.TotalSize()))
		fill, err := FillingForBudget(w, p, budget, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		greedy, err := GreedyRatio(w, p, budget)
		if err != nil {
			t.Fatal(err)
		}
		// Marginal gains are allocation-independent under the linear
		// model, so both walk the same density order.
		if math.Abs(fill.Cost-greedy.Cost) > 1e-9*fill.Cost {
			t.Errorf("budget %d: greedy ratio cost %g != filling cost %g", budget, greedy.Cost, fill.Cost)
		}
	}
}

// TestReallocationBetaSuppressesChurn: with the current allocation and a
// prohibitive beta, the solver keeps the current placement; with beta=0
// it is free to move.
func TestReallocationBetaSuppressesChurn(t *testing.T) {
	w := example(t, 20, 150, 29)
	p := DefaultCostParams()
	budget := int64(0.4 * float64(w.TotalSize()))
	free, err := OptimalILP(w, p, budget)
	if err != nil {
		t.Fatal(err)
	}
	// Perturb: current allocation = free optimum with one column flipped out.
	current := make([]bool, len(free.InDRAM))
	copy(current, free.InDRAM)
	flipped := -1
	for i, in := range current {
		if in {
			current[i] = false
			flipped = i
			break
		}
	}
	if flipped < 0 {
		t.Skip("no column selected at this budget")
	}
	hugeBeta := 1e6 * p.CSS
	sticky, err := OptimalILPRealloc(w, p, budget, current, hugeBeta)
	if err != nil {
		t.Fatal(err)
	}
	for i := range current {
		if sticky.InDRAM[i] != current[i] {
			t.Errorf("with prohibitive beta, column %d moved", i)
		}
	}
	// With beta = 0, reallocation is free and the optimum is restored.
	loose, err := OptimalILPRealloc(w, p, budget, current, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(loose.Cost-free.Cost) > 1e-9*free.Cost {
		t.Errorf("beta=0 realloc cost %g, want unconstrained optimum %g", loose.Cost, free.Cost)
	}
}

// TestReallocationExplicitMatchesILP: the explicit reallocation-aware
// solution is on the frontier of the reallocation ILP.
func TestReallocationExplicitMatchesILP(t *testing.T) {
	w := example(t, 15, 100, 30)
	p := DefaultCostParams()
	current := make([]bool, len(w.Columns))
	for i := range current {
		current[i] = i%3 == 0
	}
	beta := p.CSS / 2
	budget := int64(0.5 * float64(w.TotalSize()))
	exp, err := ExplicitForBudget(w, p, budget, current, beta)
	if err != nil {
		t.Fatal(err)
	}
	// Evaluate both solutions under the full reallocation objective.
	objective := func(x []bool) float64 {
		obj := ScanCost(w, p, x)
		for i := range x {
			if x[i] != current[i] {
				obj += beta * float64(w.Columns[i].Size)
			}
		}
		return obj
	}
	opt, err := OptimalILPRealloc(w, p, exp.Memory, current, beta)
	if err != nil {
		t.Fatal(err)
	}
	if objective(exp.InDRAM) < objective(opt.InDRAM)-1e-9 {
		t.Errorf("explicit realloc solution beats ILP: %g < %g", objective(exp.InDRAM), objective(opt.InDRAM))
	}
	if objective(exp.InDRAM) > objective(opt.InDRAM)+1e-9*objective(opt.InDRAM) {
		t.Errorf("explicit realloc solution off ILP frontier: %g > %g", objective(exp.InDRAM), objective(opt.InDRAM))
	}
}
