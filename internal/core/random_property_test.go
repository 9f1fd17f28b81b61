package core

import (
	"math"
	"math/rand"
	"testing"
)

// Randomized cross-method properties over many Example 1 instances:
// the invariants that make the paper's theory useful must hold for
// every instance, not just the seeds the other tests pin down.
func TestRandomInstancesCrossMethodInvariants(t *testing.T) {
	p := DefaultCostParams()
	for trial := 0; trial < 25; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		w, err := Example1(Example1Config{
			Columns:      5 + rng.Intn(40),
			Queries:      20 + rng.Intn(300),
			Seed:         rng.Int63(),
			CoOccurrence: rng.Float64(),
			Correlation:  rng.Float64(),
		})
		if err != nil {
			t.Fatal(err)
		}
		budget := int64(rng.Float64() * float64(w.TotalSize()))

		ilp, err := OptimalILP(w, p, budget)
		if err != nil {
			t.Fatal(err)
		}
		explicit, err := ExplicitForBudget(w, p, budget, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		filling, err := FillingForBudget(w, p, budget, nil, 0)
		if err != nil {
			t.Fatal(err)
		}

		// Budgets respected.
		for name, a := range map[string]Allocation{"ilp": ilp, "explicit": explicit, "filling": filling} {
			if a.Memory > budget {
				t.Fatalf("trial %d: %s exceeds budget: %d > %d", trial, name, a.Memory, budget)
			}
		}
		// Ordering: ILP <= filling <= explicit (the relaxed MIP gap of
		// 1e-6 allows equal-within-noise).
		tol := 1e-6 * explicit.Cost
		if ilp.Cost > filling.Cost+tol || filling.Cost > explicit.Cost+tol {
			t.Fatalf("trial %d: cost ordering violated: ilp %g, filling %g, explicit %g",
				trial, ilp.Cost, filling.Cost, explicit.Cost)
		}
		// Theorem 1/2: the explicit solution is on the frontier — the
		// ILP at the explicit solution's own memory level cannot beat
		// it (beyond solver tolerance).
		onFrontier, err := OptimalILP(w, p, explicit.Memory)
		if err != nil {
			t.Fatal(err)
		}
		if explicit.Cost > onFrontier.Cost*(1+1e-6)+1e-15 {
			t.Fatalf("trial %d: explicit off frontier: %g vs %g at %d bytes",
				trial, explicit.Cost, onFrontier.Cost, explicit.Memory)
		}
		// Heuristics never beat the optimum.
		for _, h := range []Method{MethodFrequency, MethodSelectivity, MethodSelectivityFrequency} {
			alloc, err := SolveHeuristic(w, p, budget, h)
			if err != nil {
				t.Fatal(err)
			}
			if alloc.Cost < ilp.Cost*(1-1e-6) {
				t.Fatalf("trial %d: %s beats ILP: %g < %g", trial, h, alloc.Cost, ilp.Cost)
			}
		}
	}
}

// TestRandomInstancesReallocationInvariants checks the Section III-D
// extension across random instances: (i) beta = 0 equals the
// unconstrained problem, (ii) the reallocation objective of the chosen
// allocation never exceeds keeping the current allocation, and (iii) a
// prohibitive beta freezes the placement.
func TestRandomInstancesReallocationInvariants(t *testing.T) {
	p := DefaultCostParams()
	for trial := 0; trial < 15; trial++ {
		rng := rand.New(rand.NewSource(int64(2000 + trial)))
		w, err := Example1(Example1Config{
			Columns: 5 + rng.Intn(25),
			Queries: 20 + rng.Intn(200),
			Seed:    rng.Int63(),
		})
		if err != nil {
			t.Fatal(err)
		}
		budget := int64((0.2 + 0.6*rng.Float64()) * float64(w.TotalSize()))
		current := make([]bool, len(w.Columns))
		var currentMem int64
		for i := range current {
			current[i] = rng.Intn(2) == 0
			if current[i] {
				currentMem += w.Columns[i].Size
			}
		}
		beta := p.CSS * rng.Float64()

		free, err := OptimalILP(w, p, budget)
		if err != nil {
			t.Fatal(err)
		}
		zeroBeta, err := OptimalILPRealloc(w, p, budget, current, 0)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(zeroBeta.Cost-free.Cost) > 1e-6*free.Cost {
			t.Fatalf("trial %d: beta=0 cost %g != unconstrained %g", trial, zeroBeta.Cost, free.Cost)
		}

		chosen, err := OptimalILPRealloc(w, p, budget, current, beta)
		if err != nil {
			t.Fatal(err)
		}
		objective := func(x []bool) float64 {
			obj := ScanCost(w, p, x)
			for i := range x {
				if x[i] != current[i] {
					obj += beta * float64(w.Columns[i].Size)
				}
			}
			return obj
		}
		if currentMem <= budget {
			// Keeping the current allocation is feasible, so the
			// optimizer must not do worse than standing still.
			if objective(chosen.InDRAM) > objective(current)*(1+1e-6)+1e-15 {
				t.Fatalf("trial %d: realloc objective %g worse than staying at %g",
					trial, objective(chosen.InDRAM), objective(current))
			}
		}

		if currentMem <= budget {
			frozen, err := OptimalILPRealloc(w, p, budget, current, 1e9*p.CSS)
			if err != nil {
				t.Fatal(err)
			}
			for i := range current {
				if frozen.InDRAM[i] != current[i] {
					t.Fatalf("trial %d: prohibitive beta moved column %d", trial, i)
				}
			}
		}
	}
}

// TestRandomInstancesPerformanceOrderPrefix confirms Remark 1 across
// random instances: every explicit solution is a prefix of the
// performance order (plus pinned columns).
func TestRandomInstancesPerformanceOrderPrefix(t *testing.T) {
	p := DefaultCostParams()
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(3000 + trial)))
		w, err := Example1(Example1Config{
			Columns: 10 + rng.Intn(30),
			Queries: 50 + rng.Intn(200),
			Seed:    rng.Int63(),
		})
		if err != nil {
			t.Fatal(err)
		}
		order, err := PerformanceOrder(w, p, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		budget := int64(rng.Float64() * float64(w.TotalSize()))
		alloc, err := ExplicitForBudget(w, p, budget, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Find where the prefix ends; everything after must be out.
		ended := false
		for _, c := range order {
			if alloc.InDRAM[c] && ended {
				t.Fatalf("trial %d: explicit solution is not a prefix of the performance order", trial)
			}
			if !alloc.InDRAM[c] {
				ended = true
			}
		}
	}
}
