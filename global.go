package tierdb

import (
	"fmt"

	"tierdb/internal/core"
)

// GlobalLayout is a database-wide placement: one layout per table,
// computed from a single shared DRAM budget.
type GlobalLayout struct {
	// PerTable maps table names to their recommended layouts.
	PerTable map[string]Layout
	// Memory is the summed DRAM use of all placements.
	Memory int64
	// EstimatedCost is the summed modeled scan cost.
	EstimatedCost float64
}

// RecommendGlobalLayout optimizes the placement of every table's
// columns against one shared DRAM budget (paper Section III-G:
// "Enterprise systems often have thousands of tables. For those
// systems, it is unrealistic to expect that the database administrator
// will set memory budgets for each table manually."). All tables'
// workloads are combined into a single column selection problem —
// columns are namespaced by table, queries keep their per-table column
// sets — and solved jointly, so DRAM flows to whichever table's columns
// buy the most performance per byte.
//
// opts.Budget/RelativeBudget applies to the union of all tables;
// opts.Pinned is not supported here (pin per table via the workload).
func (db *DB) RecommendGlobalLayout(opts PlacementOptions) (GlobalLayout, error) {
	tables := db.tableList()
	if len(tables) == 0 {
		return GlobalLayout{}, fmt.Errorf("tierdb: no tables to optimize")
	}
	if len(opts.Pinned) > 0 {
		return GlobalLayout{}, fmt.Errorf("tierdb: global optimization does not take name-based pins; pin via per-table workloads")
	}

	// Combine the per-table workloads, offsetting column indexes. Each
	// table's model is built once and reused to report its slice of the
	// solve, so the per-table figures add up to what the solver saw.
	combined := &Workload{}
	models := make([]*Workload, len(tables))
	offsets := make([]int, len(tables))
	for i, t := range tables {
		w, err := t.ExtractWorkload(nil)
		if err != nil {
			return GlobalLayout{}, fmt.Errorf("tierdb: extract workload of %s: %w", t.Name(), err)
		}
		models[i] = w
		offsets[i] = len(combined.Columns)
		for _, c := range w.Columns {
			c.Name = t.Name() + "." + c.Name
			combined.Columns = append(combined.Columns, c)
		}
		for _, q := range w.Queries {
			cols := make([]int, len(q.Columns))
			for j, c := range q.Columns {
				cols[j] = c + offsets[i]
			}
			combined.Queries = append(combined.Queries, core.Query{Columns: cols, Frequency: q.Frequency})
		}
	}

	solved, err := Solve(combined, opts)
	if err != nil {
		return GlobalLayout{}, err
	}

	out := GlobalLayout{PerTable: make(map[string]Layout, len(tables))}
	costs := core.DefaultCostParams()
	if opts.Costs.CMM != 0 || opts.Costs.CSS != 0 {
		costs = opts.Costs
	}
	for i, t := range tables {
		w := models[i]
		in := append([]bool(nil), solved.InDRAM[offsets[i]:offsets[i]+len(w.Columns)]...)
		// Evaluate the per-table slice against its own workload for
		// reporting.
		cost := core.ScanCost(w, costs, in)
		mem := core.MemoryUsed(w, in)
		layout := Layout{
			InDRAM:        in,
			EstimatedCost: cost,
			Memory:        mem,
			RelativePerformance: core.RelativePerformance(w, costs, core.Allocation{
				InDRAM: in, Cost: cost, Memory: mem,
			}),
		}
		out.PerTable[t.Name()] = layout
		out.Memory += mem
		out.EstimatedCost += cost
	}
	return out, nil
}

// ApplyGlobalLayout re-tiers every table to its slice of the global
// placement.
func (db *DB) ApplyGlobalLayout(g GlobalLayout) error {
	for name, layout := range g.PerTable {
		t, err := db.Table(name)
		if err != nil {
			return err
		}
		if err := t.ApplyLayout(layout); err != nil {
			return fmt.Errorf("tierdb: apply layout to %s: %w", name, err)
		}
	}
	return nil
}
