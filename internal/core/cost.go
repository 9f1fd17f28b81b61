package core

// Allocation is the result of a column selection: which columns are
// DRAM-resident, the modeled total scan cost F(x), and the DRAM space
// M(x) the selection occupies.
type Allocation struct {
	// InDRAM is the decision vector x: InDRAM[i] reports whether column
	// i is kept DRAM-resident (as an MRC).
	InDRAM []bool
	// Cost is the total scan cost F(x) of the workload under this
	// allocation, in the unit of CostParams (typically seconds).
	Cost float64
	// Memory is M(x), the DRAM bytes the selected columns occupy.
	Memory int64
}

// CountInDRAM returns the number of DRAM-resident columns.
func (a Allocation) CountInDRAM() int {
	n := 0
	for _, in := range a.InDRAM {
		if in {
			n++
		}
	}
	return n
}

// ScanCost evaluates the total scan cost F(x) of formula (1)-(2): for
// every query, predicates run in ascending selectivity order, and the
// data volume each predicate touches is the column size scaled by the
// product of the selectivities of all previously executed predicates.
func ScanCost(w *Workload, p CostParams, x []bool) float64 {
	var total float64
	for _, q := range w.Queries {
		total += q.Frequency * queryScanCost(w, p, x, q)
	}
	return total
}

// CostShare is one predicate column's term of a query's modeled scan
// cost f_j(x): unit(tier) * size * fraction, where fraction is the
// product of the selectivities of the predicates the model orders
// before this one.
type CostShare struct {
	// Column indexes into w.Columns.
	Column int
	// Fraction is the data-volume share the predicate touches: the
	// product of earlier selectivities in the model's scan order.
	Fraction float64
	// InDRAM reports which tier's unit cost the term charged.
	InDRAM bool
	// Cost is the term's value in the unit of CostParams (seconds),
	// before frequency weighting.
	Cost float64
}

// QueryCostShares decomposes a single query's modeled scan cost f_j(x)
// into per-column terms, following the model's own ascending-selectivity
// scan order. queryScanCost sums exactly this decomposition, so the
// shares always add up to the query's contribution to ScanCost (before
// frequency weighting) — the two cannot diverge.
func QueryCostShares(w *Workload, p CostParams, x []bool, q Query) []CostShare {
	shares := make([]CostShare, 0, len(q.Columns))
	share := 1.0 // product of selectivities of already-executed predicates
	for _, k := range w.scanOrder(q) {
		c := w.Columns[k]
		unit := p.CSS
		in := false
		if x[k] {
			unit = p.CMM
			in = true
		}
		shares = append(shares, CostShare{
			Column:   k,
			Fraction: share,
			InDRAM:   in,
			Cost:     unit * float64(c.Size) * share,
		})
		share *= c.Selectivity
	}
	return shares
}

// queryScanCost computes f_j(x) for a single query.
func queryScanCost(w *Workload, p CostParams, x []bool, q Query) float64 {
	var cost float64
	for _, s := range QueryCostShares(w, p, x, q) {
		cost += s.Cost
	}
	return cost
}

// MemoryUsed returns M(x), the DRAM bytes occupied by the selection x.
func MemoryUsed(w *Workload, x []bool) int64 {
	var m int64
	for i, in := range x {
		if in {
			m += w.Columns[i].Size
		}
	}
	return m
}

// makeAllocation bundles a decision vector with its evaluated cost and
// memory footprint.
func makeAllocation(w *Workload, p CostParams, x []bool) Allocation {
	return Allocation{InDRAM: x, Cost: ScanCost(w, p, x), Memory: MemoryUsed(w, x)}
}

// Coefficients returns the per-column coefficients S_i of the paper's
// explicit solution (Section III-F):
//
//	S_i = sum_j b_j * (c_mm - c_ss) * prod_{k in q_j, s_k < s_i} s_k
//
// S_i is the change in F per byte of column i when moving it into DRAM;
// it is non-positive whenever c_mm <= c_ss. The total cost decomposes as
// F(x) = F(0) + sum_i a_i * S_i * x_i, which makes the integer program a
// 0/1 knapsack and underpins Lemma 1, Theorem 1 and Theorem 2.
func Coefficients(w *Workload, p CostParams) []float64 {
	s := make([]float64, len(w.Columns))
	diff := p.CMM - p.CSS
	for _, q := range w.Queries {
		share := 1.0
		for _, k := range w.scanOrder(q) {
			s[k] += q.Frequency * diff * share
			share *= w.Columns[k].Selectivity
		}
	}
	return s
}

// Benefits returns, for each column, the total runtime saved by keeping
// it DRAM-resident: -a_i * S_i. Columns that are never filtered have
// benefit zero (the paper's trivial preprocessing step evicts them
// first).
func Benefits(w *Workload, p CostParams) []float64 {
	s := Coefficients(w, p)
	b := make([]float64, len(s))
	for i, si := range s {
		b[i] = -float64(w.Columns[i].Size) * si
	}
	return b
}

// RelativePerformance returns the paper's Figure 3/4 metric: the minimal
// scan cost (all columns DRAM-resident) divided by the scan cost of the
// given allocation. It is 1 for a full-DRAM allocation and approaches
// CMM/CSS as everything is evicted.
func RelativePerformance(w *Workload, p CostParams, a Allocation) float64 {
	all := make([]bool, len(w.Columns))
	for i := range all {
		all[i] = true
	}
	best := ScanCost(w, p, all)
	if a.Cost == 0 {
		return 1
	}
	return best / a.Cost
}
