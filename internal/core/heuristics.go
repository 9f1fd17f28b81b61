package core

import (
	"fmt"
	"sort"
)

// SolveHeuristic allocates columns to DRAM following benchmark heuristic
// h — MethodFrequency, MethodSelectivity or MethodSelectivityFrequency
// (Example 1, H1-H3), the status quo of vertical partitioning advisors:
// orderings over per-column metrics that ignore selection interaction.
// Columns are ranked by the heuristic's metric and placed in rank
// order; a column that no longer fits is skipped and later (smaller)
// columns may still be placed ("If a column does not fit into the DRAM
// budget anymore, it is checked if columns of higher order do so").
// Columns that are never filtered (g_i = 0) are not considered. Pinned
// columns are always placed.
func SolveHeuristic(w *Workload, p CostParams, budget int64, h Method) (Allocation, error) {
	if err := w.Validate(); err != nil {
		return Allocation{}, err
	}
	g := w.AccessCounts()
	type entry struct {
		idx int
		key float64
	}
	entries := make([]entry, 0, len(w.Columns))
	for i, c := range w.Columns {
		if c.Pinned || g[i] <= 0 {
			continue
		}
		var key float64
		switch h {
		case MethodFrequency:
			key = -g[i] // descending occurrences
		case MethodSelectivity:
			key = c.Selectivity // ascending selectivity
		case MethodSelectivityFrequency:
			key = c.Selectivity / g[i] // ascending ratio
		default:
			return Allocation{}, fmt.Errorf("core: %s is not a benchmark heuristic", h)
		}
		entries = append(entries, entry{idx: i, key: key})
	}
	sort.Slice(entries, func(a, b int) bool {
		if entries[a].key != entries[b].key {
			return entries[a].key < entries[b].key
		}
		return entries[a].idx < entries[b].idx
	})

	x, used, err := placePinned(w, budget)
	if err != nil {
		return Allocation{}, err
	}
	for _, e := range entries {
		if used+w.Columns[e.idx].Size > budget {
			continue
		}
		x[e.idx] = true
		used += w.Columns[e.idx].Size
	}
	return makeAllocation(w, p, x), nil
}
