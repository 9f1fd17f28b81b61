// Package explain builds structured EXPLAIN/ANALYZE plans: a per-query
// view joining what the executor chose (filter order, access paths),
// what the cost model predicted (per-column modeled scan cost from the
// same decomposition the placement solver optimizes), and — in ANALYZE
// mode — what actually happened (per-operator wall time, rows, page
// reads, observed selectivity). A plan also carries a placement
// attribution section: per touched column, the tier it lives on, the
// modeled cost it contributed, and what the advisor's recommended
// placement would have cost instead (the regret of the current layout).
//
// The package is a leaf: it depends only on the cost model (core) and
// the trace schema (metrics), so every layer of the stack — exec, root
// API, tierctl, obsrv — can share its types.
package explain

import (
	"fmt"
	"strings"

	"tierdb/internal/core"
	"tierdb/internal/metrics"
)

// Mode distinguishes plan-only EXPLAIN from executed ANALYZE.
type Mode string

const (
	// ModeExplain plans the query without executing it: nodes are the
	// operators the executor's plan predicts, observed fields stay zero.
	ModeExplain Mode = "explain"
	// ModeAnalyze executes the query and annotates each node with
	// observed wall time, rows, page reads and selectivity.
	ModeAnalyze Mode = "analyze"
)

// PredicateSpec is the wire/HTTP form of one predicate: column by name,
// operator "eq" or "between", and untyped value strings the owning
// table resolves against its schema. It is deliberately stringly typed
// so that /explain query parameters decode into it as they are.
type PredicateSpec struct {
	// Column is the column name.
	Column string `json:"column"`
	// Op is "eq" or "between".
	Op string `json:"op"`
	// Value is the equality operand, or the range's low bound.
	Value string `json:"value"`
	// Hi is the range's high bound ("between" only).
	Hi string `json:"hi,omitempty"`
}

// ParseQuerySpec parses the compact query syntax shared by
// `tierctl explain -q` and `/explain?q=`: comma-separated terms, each
// either `col=value` (equality) or `col=lo..hi` (between).
func ParseQuerySpec(s string) ([]PredicateSpec, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var specs []PredicateSpec
	for _, term := range strings.Split(s, ",") {
		col, val, ok := strings.Cut(strings.TrimSpace(term), "=")
		if !ok || col == "" || val == "" {
			return nil, fmt.Errorf("explain: bad predicate %q, want col=value or col=lo..hi", term)
		}
		if lo, hi, isRange := strings.Cut(val, ".."); isRange {
			if lo == "" || hi == "" {
				return nil, fmt.Errorf("explain: bad range %q, want col=lo..hi", term)
			}
			specs = append(specs, PredicateSpec{Column: col, Op: "between", Value: lo, Hi: hi})
		} else {
			specs = append(specs, PredicateSpec{Column: col, Op: "eq", Value: val})
		}
	}
	return specs, nil
}

// ColumnInput describes one schema column of the queried table as the
// placement model sees it: size, model selectivity (with its source),
// current tier and the advisor's recommended tier.
type ColumnInput struct {
	// Name is the column name.
	Name string
	// SizeBytes is the column's size as the cost model prices it.
	SizeBytes int64
	// Selectivity is the model selectivity the advisor's solve used.
	Selectivity float64
	// SelectivitySource is "estimated" (1/distinct) or "observed"
	// (EWMA of executed selectivities).
	SelectivitySource string
	// ObservedSamples is the observed-EWMA sample count.
	ObservedSamples int64
	// InDRAM is the live placement.
	InDRAM bool
	// Recommended is the advisor's recommended placement.
	Recommended bool
}

// Input is everything Build needs to assemble a Plan. The caller (the
// root package) gathers it from the table, the executor's trace and
// the advisor's solve so that modeled numbers come from exactly the
// machinery the placement decisions use.
type Input struct {
	Table          string
	Mode           Mode
	Device         string
	Parallelism    int
	ProbeThreshold float64
	// Costs are the cost-model parameters the advisor solves with.
	Costs core.CostParams
	// Columns is the full schema, in schema order.
	Columns []ColumnInput
	// QueryColumns are the schema indices of the predicate columns.
	QueryColumns []int
	// ProjectColumns are the schema indices materialized for output.
	ProjectColumns []int
	// Predicates render the resolved predicates ("region = 7", "amount
	// between 100 and 200") in the caller's order, the order
	// metrics.PredicateTrace.Query indexes.
	Predicates []string
	// Trace is the executor's record: the filter order in Predicates and
	// one entry per node in Operators — the executed operators under
	// ANALYZE, the plan's predicted ones (Executor.Explain) under
	// EXPLAIN.
	Trace *metrics.Trace
	// WallNs is the query's total wall time (ANALYZE only).
	WallNs int64
	// TraceID links the plan to the distributed-trace span tree when
	// the query was sampled.
	TraceID string
}

// Node is one operator of the plan. Modeled fields come from the cost
// model; Observed* fields are filled only in ANALYZE mode.
type Node struct {
	// Operator is the executor's operator name (metrics.OperatorTrace):
	// index, scan, probe, visible or materialize.
	Operator string `json:"operator"`
	// Partition is "main", "delta" or, during a merge, "delta.frozen".
	Partition string `json:"partition,omitempty"`
	// Path is the access path: "mrc", "sscg", "index" or "".
	Path string `json:"path,omitempty"`
	// Column is the predicate's schema column index (-1 when the
	// operator has no predicate column).
	Column int `json:"column"`
	// ColumnName is the predicate column's name.
	ColumnName string `json:"column_name,omitempty"`
	// Predicate renders the filter, e.g. "region = 7".
	Predicate string `json:"predicate,omitempty"`
	// Tier is where the operator read from: "dram" or "secondary".
	Tier string `json:"tier,omitempty"`
	// ModeledCost is this operator's term of the model's scan cost
	// F(x), in seconds. Only main-partition predicate operators carry a
	// term; the terms sum exactly to the placement section's
	// current_modeled_cost.
	ModeledCost float64 `json:"modeled_cost,omitempty"`
	// ModeledFraction is the data-volume share the model predicts the
	// operator touches (product of earlier selectivities).
	ModeledFraction float64 `json:"modeled_fraction,omitempty"`
	// EstimatedSelectivity is the optimizer's per-predicate estimate.
	EstimatedSelectivity float64 `json:"estimated_selectivity,omitempty"`

	// ObservedSelectivity is rows_out/rows_in (ANALYZE).
	ObservedSelectivity float64 `json:"observed_selectivity,omitempty"`
	// MisestimateRatio is observed/estimated selectivity (ANALYZE).
	MisestimateRatio float64 `json:"misestimate_ratio,omitempty"`
	// RowsIn and RowsOut are the operator's candidate counts (ANALYZE).
	RowsIn  int `json:"rows_in,omitempty"`
	RowsOut int `json:"rows_out,omitempty"`
	// ObservedNs is the operator's wall time (ANALYZE).
	ObservedNs int64 `json:"observed_ns,omitempty"`
	// StartNs and EndNs bound the operator's interval; they equal the
	// corresponding exec.* span in the trace tree (ANALYZE).
	StartNs int64 `json:"start_ns,omitempty"`
	EndNs   int64 `json:"end_ns,omitempty"`
	// PageReads counts timed secondary-storage page reads (ANALYZE).
	PageReads int64 `json:"page_reads,omitempty"`
	// Morsels is the operator's fan-out (ANALYZE, more than one worker).
	Morsels int `json:"morsels,omitempty"`
	// SwitchedToProbe marks the paper's scan-to-probe switchover.
	SwitchedToProbe bool `json:"switched_to_probe,omitempty"`
	// CandidateFraction is the fraction the switchover decision saw.
	CandidateFraction float64 `json:"candidate_fraction,omitempty"`
}

// ColumnAttribution is one row of the placement section: what the
// column costs this query under the live placement versus under the
// advisor's recommendation.
type ColumnAttribution struct {
	Column            int     `json:"column"`
	Name              string  `json:"name"`
	SizeBytes         int64   `json:"size_bytes"`
	Selectivity       float64 `json:"selectivity"`
	SelectivitySource string  `json:"selectivity_source"`
	ObservedSamples   int64   `json:"observed_samples,omitempty"`
	// TierNow and TierRecommended are "dram" or "secondary".
	TierNow         string `json:"tier_now"`
	TierRecommended string `json:"tier_recommended"`
	// ScanFraction is the data-volume share the model charges the
	// column (product of earlier selectivities in model scan order).
	ScanFraction float64 `json:"scan_fraction"`
	// ModeledCost is the column's term under the live placement;
	// RecommendedCost under the advisor's recommendation. Regret is
	// their difference — what the current layout costs this query
	// beyond the recommended one (negative when the incumbent happens
	// to be cheaper for this particular query).
	ModeledCost     float64 `json:"modeled_cost"`
	RecommendedCost float64 `json:"recommended_cost"`
	Regret          float64 `json:"regret"`
}

// Attribution is the plan-level placement section.
type Attribution struct {
	// CurrentCost is the query's modeled scan cost under the live
	// placement — exactly core.ScanCost of the single-query workload.
	CurrentCost float64 `json:"current_modeled_cost"`
	// RecommendedCost is the same query under the advisor's
	// recommended placement.
	RecommendedCost float64 `json:"recommended_modeled_cost"`
	// Regret is CurrentCost - RecommendedCost.
	Regret float64 `json:"regret"`
	// Columns attributes the totals per touched column.
	Columns []ColumnAttribution `json:"columns"`
}

// Plan is the structured EXPLAIN/ANALYZE result.
type Plan struct {
	Table          string  `json:"table"`
	Mode           Mode    `json:"mode"`
	Device         string  `json:"device,omitempty"`
	Parallelism    int     `json:"parallelism"`
	ProbeThreshold float64 `json:"probe_threshold"`
	// TraceID links to /trace/{id} when the query was sampled.
	TraceID string `json:"trace_id,omitempty"`
	// WallNs, RowsQualified, PageReads, DRAMNs and DeviceNs summarize
	// the execution (ANALYZE only).
	WallNs        int64       `json:"wall_ns,omitempty"`
	RowsQualified int         `json:"rows_qualified,omitempty"`
	PageReads     int64       `json:"page_reads,omitempty"`
	DRAMNs        int64       `json:"dram_ns,omitempty"`
	DeviceNs      int64       `json:"device_ns,omitempty"`
	Nodes         []Node      `json:"nodes"`
	Placement     Attribution `json:"placement"`
}

// tierName renders a placement bit.
func tierName(inDRAM bool) string {
	if inDRAM {
		return "dram"
	}
	return "secondary"
}

// Build assembles a Plan from the executor's trace and the advisor's
// placement inputs. Modeled costs come from core.QueryCostShares over a
// single-query workload, so the per-column terms sum exactly to
// core.ScanCost of that workload under the live placement — the same
// model, same decomposition, the solver optimizes.
func Build(in Input) (*Plan, error) {
	if in.Trace == nil {
		return nil, fmt.Errorf("explain: input carries no trace")
	}
	nCols := len(in.Columns)
	for _, c := range in.QueryColumns {
		if c < 0 || c >= nCols {
			return nil, fmt.Errorf("explain: query column %d out of range (schema has %d)", c, nCols)
		}
	}

	// Single-query workload: this query with frequency 1, priced over
	// the full schema so column indices line up.
	w := &core.Workload{Columns: make([]core.Column, nCols)}
	current := make([]bool, nCols)
	recommended := make([]bool, nCols)
	for i, c := range in.Columns {
		size := c.SizeBytes
		if size < 1 {
			size = 1
		}
		w.Columns[i] = core.Column{Name: c.Name, Size: size, Selectivity: c.Selectivity}
		current[i] = c.InDRAM
		recommended[i] = c.Recommended
	}

	p := &Plan{
		Table:          in.Table,
		Mode:           in.Mode,
		Device:         in.Device,
		Parallelism:    in.Parallelism,
		ProbeThreshold: in.ProbeThreshold,
		TraceID:        in.TraceID,
	}

	curShare := map[int]core.CostShare{}
	recShare := map[int]core.CostShare{}
	if len(in.QueryColumns) > 0 {
		q := core.Query{Columns: in.QueryColumns, Frequency: 1}
		for _, s := range core.QueryCostShares(w, in.Costs, current, q) {
			curShare[s.Column] = s
			p.Placement.CurrentCost += s.Cost
		}
		for _, s := range core.QueryCostShares(w, in.Costs, recommended, q) {
			recShare[s.Column] = s
			p.Placement.RecommendedCost += s.Cost
		}
	}
	p.Placement.Regret = p.Placement.CurrentCost - p.Placement.RecommendedCost
	p.Placement.Columns = make([]ColumnAttribution, 0, len(in.QueryColumns))
	// Attribute in model scan order, the order the shares were charged.
	for _, s := range orderedShares(w, in.Costs, current, in.QueryColumns) {
		c := in.Columns[s.Column]
		p.Placement.Columns = append(p.Placement.Columns, ColumnAttribution{
			Column:            s.Column,
			Name:              c.Name,
			SizeBytes:         w.Columns[s.Column].Size,
			Selectivity:       c.Selectivity,
			SelectivitySource: c.SelectivitySource,
			ObservedSamples:   c.ObservedSamples,
			TierNow:           tierName(c.InDRAM),
			TierRecommended:   tierName(c.Recommended),
			ScanFraction:      s.Fraction,
			ModeledCost:       s.Cost,
			RecommendedCost:   recShare[s.Column].Cost,
			Regret:            s.Cost - recShare[s.Column].Cost,
		})
	}

	name := func(col int) string {
		if col >= 0 && col < nCols {
			return in.Columns[col].Name
		}
		return ""
	}
	// chargeable tracks which columns still carry an unclaimed modeled
	// term: the first main-partition operator touching a column claims
	// it, so a scan followed by later probes on the same column does
	// not double-charge.
	chargeable := map[int]bool{}
	for c := range curShare {
		chargeable[c] = true
	}

	// Nodes mirror the trace's operators one-to-one in both modes: the
	// executed ones under ANALYZE, the ones the executor's plan predicts
	// under EXPLAIN — those carry no rows, reads or intervals, so every
	// observed field below stays zero. Each partition applies the
	// predicates in the filter order, so a partition's k-th predicate
	// operator ran the k-th entry of Trace.Predicates — its estimate and,
	// through the entry's position in the caller's query, its text, which
	// the column alone cannot tell when two predicates share one.
	// applied counts them.
	applied := map[string]int{}
	for _, op := range in.Trace.Operators {
		n := Node{
			Operator:          op.Name,
			Partition:         op.Partition,
			Path:              op.Path,
			Column:            op.Column,
			ColumnName:        name(op.Column),
			RowsIn:            op.RowsIn,
			RowsOut:           op.RowsOut,
			ObservedNs:        op.EndNs - op.StartNs,
			StartNs:           op.StartNs,
			EndNs:             op.EndNs,
			PageReads:         op.PageReads,
			Morsels:           op.Morsels,
			SwitchedToProbe:   op.SwitchedToProbe,
			CandidateFraction: op.CandidateFraction,
		}
		if op.Column >= 0 {
			n.Tier = operatorTier(op.Path, current, op.Column)
			if k := applied[op.Partition]; k < len(in.Trace.Predicates) {
				pt := in.Trace.Predicates[k]
				n.EstimatedSelectivity = pt.EstimatedSelectivity
				if pt.Query < len(in.Predicates) {
					n.Predicate = in.Predicates[pt.Query]
				}
			}
			applied[op.Partition]++
			if op.RowsIn > 0 {
				n.ObservedSelectivity = float64(op.RowsOut) / float64(op.RowsIn)
				if n.EstimatedSelectivity > 0 {
					n.MisestimateRatio = n.ObservedSelectivity / n.EstimatedSelectivity
				}
			}
			if op.Partition == "main" && chargeable[op.Column] {
				chargeable[op.Column] = false
				n.ModeledCost = curShare[op.Column].Cost
				n.ModeledFraction = curShare[op.Column].Fraction
			}
		}
		p.Nodes = append(p.Nodes, n)
	}
	p.WallNs = in.WallNs
	p.RowsQualified = in.Trace.RowsQualified
	p.PageReads = in.Trace.PageReads
	p.DRAMNs = in.Trace.DRAMNs
	p.DeviceNs = in.Trace.DeviceNs
	return p, nil
}

// orderedShares returns the current-placement shares for the query's
// columns in model scan order (empty when the query has no predicates).
func orderedShares(w *core.Workload, costs core.CostParams, x []bool, cols []int) []core.CostShare {
	if len(cols) == 0 {
		return nil
	}
	return core.QueryCostShares(w, costs, x, core.Query{Columns: cols, Frequency: 1})
}

// operatorTier maps an operator's access path to the tier it read:
// index and mrc structures are DRAM-resident, sscg pages live on the
// timed secondary device (the AMM may cache them, but the model prices
// them as device reads).
func operatorTier(path string, current []bool, col int) string {
	switch path {
	case "index", "mrc":
		return "dram"
	case "sscg":
		return "secondary"
	default:
		if col >= 0 && col < len(current) {
			return tierName(current[col])
		}
		return ""
	}
}
