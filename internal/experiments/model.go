package experiments

import (
	"fmt"
	"sort"
	"time"

	"tierdb/internal/core"
	"tierdb/internal/erp"
	"tierdb/internal/solver"
)

// Table1 regenerates the paper's Table I: filter-attribute skew of the
// five largest financial-module tables of a production SAP ERP system,
// here from the synthetic workloads that reproduce the published
// statistics.
func Table1(seed int64) (*Report, error) {
	r := &Report{
		ID:     "table1",
		Title:  "Attribute filter skew of ERP tables (paper Table I)",
		Header: []string{"Table", "Attributes", "Filtered", "Filtered >=1%", "Paper (attrs/filt/>=1%)"},
	}
	for _, p := range erp.Profiles() {
		w, err := erp.Workload(p, seed)
		if err != nil {
			return nil, err
		}
		attrs, filtered, often := erp.Stats(w)
		r.AddRow(p.Name,
			fmt.Sprintf("%d", attrs),
			fmt.Sprintf("%d", filtered),
			fmt.Sprintf("%d", often),
			fmt.Sprintf("%d/%d/%d", p.Attributes, p.Filtered, p.FilteredOften))
	}
	return r, nil
}

// fig3Budgets sweeps the relative memory budget for the frontier plots.
func fig3Budgets() []float64 {
	var out []float64
	for w := 0.01; w <= 0.30001; w += 0.01 {
		out = append(out, w)
	}
	for w := 0.35; w <= 1.0001; w += 0.05 {
		out = append(out, w)
	}
	return out
}

// Fig3 regenerates Figure 3: optimal integer vs continuous solutions on
// the BSEG workload — relative performance over the share of data in
// DRAM, with the initial ~78 % eviction from never-filtered attributes
// and the sharp drop once BELNR no longer fits.
func Fig3(seed int64) (*Report, error) {
	w, err := erp.Workload(erp.Profiles()[0], seed)
	if err != nil {
		return nil, err
	}
	p := core.DefaultCostParams()
	r := &Report{
		ID:     "fig3",
		Title:  "Integer vs continuous solutions, BSEG table (paper Fig. 3)",
		Header: []string{"w (DRAM budget)", "relPerf ILP", "relPerf continuous", "cols in DRAM (ILP)"},
	}
	budgets := fig3Budgets()
	ilp, err := core.Frontier(w, p, budgets, core.MethodILP)
	if err != nil {
		return nil, err
	}
	cont, err := core.Frontier(w, p, budgets, core.MethodExplicit)
	if err != nil {
		return nil, err
	}
	for i := range budgets {
		r.AddRow(
			fmt.Sprintf("%.2f", budgets[i]),
			fmt.Sprintf("%.4f", ilp[i].RelativePerformance),
			fmt.Sprintf("%.4f", cont[i].RelativePerformance),
			fmt.Sprintf("%d", ilp[i].Allocation.CountInDRAM()),
		)
	}
	r.AddNote("initial eviction rate from never-filtered attributes: %.0f%% (paper: 78%%)",
		erp.UnfilteredShare(w)*100)
	// Find the eviction rate at which performance first drops below
	// 0.75 (the paper: <25% slowdown up to 95% eviction, sharp drop
	// beyond when BELNR no longer fits).
	for i := len(budgets) - 1; i >= 0; i-- {
		if ilp[i].RelativePerformance < 0.75 {
			r.AddNote("relative performance falls below 0.75 at w=%.2f (eviction rate %.0f%%)",
				budgets[i], (1-budgets[i])*100)
			break
		}
	}
	return r, nil
}

// comparisonMethods are the strategies Figures 4 and 5 compare.
var comparisonMethods = []struct {
	name   string
	method core.Method
}{
	{"ILP", core.MethodILP},
	{"continuous", core.MethodExplicit},
	{"H1", core.MethodFrequency},
	{"H2", core.MethodSelectivity},
	{"H3", core.MethodSelectivityFrequency},
}

// heuristicComparison runs the Figure 4/5 comparison on a workload:
// estimated runtime (total scan cost) per strategy over a budget sweep.
func heuristicComparison(id, title string, w *core.Workload) (*Report, error) {
	p := core.DefaultCostParams()
	r := &Report{
		ID:     id,
		Title:  title,
		Header: []string{"w (DRAM budget)", "ILP", "continuous", "H1", "H2", "H3", "worst heuristic/ILP"},
	}
	maxGap := 0.0
	for _, budget := range []float64{0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0} {
		b := int64(budget * float64(w.TotalSize()))
		cells := []string{fmt.Sprintf("%.2f", budget)}
		var opt float64
		var worstHeuristic float64
		for i, m := range comparisonMethods {
			alloc, err := core.Solve(w, p, b, m.method, nil, 0)
			if err != nil {
				return nil, fmt.Errorf("%s at w=%.2f: %w", m.name, budget, err)
			}
			if i == 0 {
				opt = alloc.Cost
			}
			if i >= 2 && alloc.Cost > worstHeuristic { // H1-H3 only
				worstHeuristic = alloc.Cost
			}
			cells = append(cells, fmt.Sprintf("%.3g", alloc.Cost))
		}
		gap := worstHeuristic / opt
		if gap > maxGap {
			maxGap = gap
		}
		cells = append(cells, fmt.Sprintf("%.2fx", gap))
		r.Rows = append(r.Rows, cells)
	}
	r.AddNote("largest heuristic gap over the sweep: %.1fx (paper: up to 3x)", maxGap)
	return r, nil
}

// Fig4 regenerates Figure 4: optimal and continuous solutions vs the
// benchmark heuristics H1-H3 on Example 1 (N=50, Q=500).
func Fig4(seed int64) (*Report, error) {
	w, err := core.Example1(core.Example1Config{Columns: 50, Queries: 500, Seed: seed})
	if err != nil {
		return nil, err
	}
	return heuristicComparison("fig4",
		"Model vs heuristics, Example 1 (N=50, Q=500) (paper Fig. 4)", w)
}

// Fig5 regenerates Figure 5: the same comparison on a workload variant
// with stronger selection interaction (higher column co-occurrence),
// where counting heuristics degrade further.
func Fig5(seed int64) (*Report, error) {
	w, err := core.Example1(core.Example1Config{
		Columns:             50,
		Queries:             500,
		Seed:                seed,
		CoOccurrence:        0.9,
		MeanColumnsPerQuery: 6,
	})
	if err != nil {
		return nil, err
	}
	return heuristicComparison("fig5",
		"Model vs heuristics, strong selection interaction (paper Fig. 5)", w)
}

// Fig6 regenerates Figure 6: solution structure over growing budgets —
// (a) optimal integer allocations, (b) the recursive continuous
// allocations, (c) continuous with filling. Each row is one budget; the
// matrix cell is 'X' when the column is DRAM-resident.
func Fig6(seed int64) (*Report, error) {
	w, err := core.Example1(core.Example1Config{Columns: 24, Queries: 200, Seed: seed})
	if err != nil {
		return nil, err
	}
	p := core.DefaultCostParams()
	r := &Report{
		ID:     "fig6",
		Title:  "Solution structures over budgets (paper Fig. 6)",
		Header: []string{"w", "(a) integer", "(b) continuous", "(c) cont.+filling"},
	}
	order, err := core.PerformanceOrder(w, p, nil, 0)
	if err != nil {
		return nil, err
	}
	// Render allocations in performance order so the recursive
	// staircase of the continuous solution is visible.
	render := func(a core.Allocation) string {
		var b []byte
		for _, c := range order {
			if a.InDRAM[c] {
				b = append(b, 'X')
			} else {
				b = append(b, '.')
			}
		}
		return string(b)
	}
	recursive := true
	var prev core.Allocation
	for i, budget := range []float64{0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9} {
		b := int64(budget * float64(w.TotalSize()))
		ilp, err := core.OptimalILP(w, p, b)
		if err != nil {
			return nil, err
		}
		cont, err := core.ExplicitForBudget(w, p, b, nil, 0)
		if err != nil {
			return nil, err
		}
		fill, err := core.FillingForBudget(w, p, b, nil, 0)
		if err != nil {
			return nil, err
		}
		if i > 0 {
			for c := range prev.InDRAM {
				if prev.InDRAM[c] && !cont.InDRAM[c] {
					recursive = false
				}
			}
		}
		prev = cont
		r.AddRow(fmt.Sprintf("%.2f", budget), render(ilp), render(cont), render(fill))
	}
	if recursive {
		r.AddNote("continuous solutions are recursive: columns never leave DRAM as the budget grows (Remark 1)")
	} else {
		r.AddNote("WARNING: recursive structure violated")
	}
	return r, nil
}

// Table2 regenerates Table II: solver runtime of the integer model vs
// the explicit solution for growing problem sizes. full extends the
// sweep to the paper's largest instances (N=20000 and 50000).
func Table2(full bool) (*Report, error) {
	sizes := []struct{ n, q int }{
		{100, 1000}, {500, 5000}, {1000, 10000}, {5000, 50000}, {10000, 100000},
	}
	if full {
		sizes = append(sizes, struct{ n, q int }{20000, 200000}, struct{ n, q int }{50000, 500000})
	}
	p := core.DefaultCostParams()
	r := &Report{
		ID:     "table2",
		Title:  "Computation time: integer model vs explicit solution (paper Table II)",
		Header: []string{"Columns", "Queries", "coeff pass", "ILP B&B", "B&B nodes", "Explicit", "speedup"},
	}
	for _, sz := range sizes {
		w, err := core.Example1(core.Example1Config{Columns: sz.n, Queries: sz.q, Seed: 7})
		if err != nil {
			return nil, err
		}
		budget := int64(0.5 * float64(w.TotalSize()))

		// The coefficient pass over the workload is shared by every
		// strategy; time it separately so the solver comparison is
		// solver-vs-solver, as in the paper's Table II.
		start := time.Now()
		coeff := core.Coefficients(w, p)
		coeffTime := time.Since(start)

		// ILP: knapsack branch and bound over the coefficients.
		items := make([]solver.Item, len(w.Columns))
		for i, c := range w.Columns {
			items[i] = solver.Item{Value: -float64(c.Size) * coeff[i], Weight: c.Size}
		}
		start = time.Now()
		res, err := solver.Knapsack01Opts(items, budget, solver.Options{RelativeGap: 1e-6})
		if err != nil {
			return nil, err
		}
		ilpTime := time.Since(start)

		// Explicit solution: sort columns by critical alpha, walk the
		// performance order (Theorem 2).
		start = time.Now()
		type entry struct {
			idx      int
			critical float64
		}
		entries := make([]entry, 0, len(coeff))
		for i, si := range coeff {
			if -si > 0 {
				entries = append(entries, entry{i, -si})
			}
		}
		sort.Slice(entries, func(a, b int) bool { return entries[a].critical > entries[b].critical })
		var used int64
		x := make([]bool, len(coeff))
		for _, e := range entries {
			if used+w.Columns[e.idx].Size > budget {
				break
			}
			x[e.idx] = true
			used += w.Columns[e.idx].Size
		}
		explicitTime := time.Since(start)

		speedup := float64(ilpTime) / float64(explicitTime)
		r.AddRow(
			fmt.Sprintf("%d", sz.n),
			fmt.Sprintf("%d", sz.q),
			coeffTime.Round(10*time.Microsecond).String(),
			ilpTime.Round(10*time.Microsecond).String(),
			fmt.Sprintf("%d", res.Nodes),
			explicitTime.Round(time.Microsecond).String(),
			fmt.Sprintf("%.0fx", speedup),
		)
	}
	r.AddNote("ILP times are our specialized knapsack branch and bound; the paper's MOSEK pays general MIP machinery (2210s at N=50000), so the absolute gap here is smaller while the ordering (explicit orders of magnitude faster) is preserved")
	return r, nil
}
