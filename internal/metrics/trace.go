package metrics

import (
	"fmt"
	"strings"
	"time"
)

// Trace records what one query execution actually did: the filter
// ordering the optimizer chose, per-operator access-path decisions
// (including the scan-to-probe switchover against the 0.01 % paper
// threshold), morsels executed per worker, rows qualified, and the
// modeled cost split per device. The executor fills a Trace in when
// asked (Executor.RunTracedCtx, which Table.SelectExplainedCtx and EXPLAIN
// build their plans from); a nil *Trace is
// valid everywhere and records nothing.
//
// A Trace is written by the goroutine driving the query (workers
// report through their per-worker state, merged once per query),
// so it needs no internal locking; read it only after the query
// returns.
type Trace struct {
	// Table is the queried table's name.
	Table string `json:"table"`
	// Parallelism is the worker count the executor ran with.
	Parallelism int `json:"parallelism"`
	// ProbeThreshold is the qualifying fraction below which tiered
	// predicates probe instead of scanning.
	ProbeThreshold float64 `json:"probe_threshold"`
	// Predicates is the evaluation order chosen by the optimizer.
	Predicates []PredicateTrace `json:"predicates,omitempty"`
	// Operators are the executed operators in order.
	Operators []OperatorTrace `json:"operators,omitempty"`
	// WorkerMorsels is the number of morsels each worker pulled from the
	// shared counter (empty when one worker ran the query inline).
	WorkerMorsels []int64 `json:"worker_morsels,omitempty"`
	// RowsQualified is the final result cardinality.
	RowsQualified int `json:"rows_qualified"`
	// Device names the secondary-storage device model.
	Device string `json:"device,omitempty"`
	// DRAMNs is the modeled DRAM-side cost in nanoseconds.
	DRAMNs int64 `json:"dram_ns"`
	// DeviceNs is the modeled secondary-storage cost in nanoseconds.
	DeviceNs int64 `json:"device_ns"`
	// PageReads is the number of timed secondary-storage page reads.
	PageReads int64 `json:"page_reads"`
	// StartNs is the query's wall-clock start (unix nanos); the first
	// operator's interval opens here. Set by the executor.
	StartNs int64 `json:"start_ns,omitempty"`

	// prevNs is the end of the last recorded operator; the next
	// operator's interval opens here so back-to-back operators tile the
	// query's wall time without gaps.
	prevNs int64
}

// PredicateTrace records one predicate's position in the chosen filter
// ordering.
type PredicateTrace struct {
	// Query is the predicate's position in the query as the caller
	// wrote it, which EXPLAIN labels the predicate's operators by. It is
	// not serialized: /traces keeps its shape.
	Query int `json:"-"`
	// Column is the schema column index.
	Column int `json:"column"`
	// Op is the comparison ("eq" or "between").
	Op string `json:"op"`
	// Path is the access path rank the ordering used: "index", "mrc"
	// (DRAM-resident) or "sscg" (tiered).
	Path string `json:"path"`
	// EstimatedSelectivity is the optimizer's qualifying-fraction
	// estimate.
	EstimatedSelectivity float64 `json:"estimated_selectivity"`
}

// OperatorTrace records one executed operator.
type OperatorTrace struct {
	// Name is the operator kind: "index", "scan", "probe", "visible" or
	// "materialize". The delta side uses the same names under its own
	// partition.
	Name string `json:"name"`
	// Partition is "main", "delta" or, for the partition an in-flight
	// merge is folding, "delta.frozen".
	Partition string `json:"partition"`
	// Path is the storage the operator touched: "mrc", "sscg",
	// "index" or "" when not applicable.
	Path string `json:"path,omitempty"`
	// Column is the predicate column (-1 for materialize/visible).
	Column int `json:"column"`
	// SwitchedToProbe reports a tiered operator that took the probe
	// path because the candidate fraction fell below the threshold —
	// the paper's scan-to-probe switchover.
	SwitchedToProbe bool `json:"switched_to_probe,omitempty"`
	// CandidateFraction is the qualifying fraction the switchover
	// decision saw (0 for first predicates).
	CandidateFraction float64 `json:"candidate_fraction,omitempty"`
	// RowsIn is the candidate count entering the operator (the full
	// partition size for first predicates).
	RowsIn int `json:"rows_in"`
	// RowsOut is the qualifying count leaving the operator.
	RowsOut int `json:"rows_out"`
	// Morsels is the number of work units the operator fanned out
	// (0 when one worker ran it inline).
	Morsels int `json:"morsels,omitempty"`
	// PageReads is the number of timed secondary-storage page reads the
	// operator caused (0 for DRAM-only operators).
	PageReads int64 `json:"page_reads,omitempty"`
	// StartNs and EndNs bound the operator's wall-clock interval (unix
	// nanos). Operators are recorded at phase barriers by the driving
	// goroutine, so the interval opens at the previous operator's end
	// (or the query start) and closes at record time.
	StartNs int64 `json:"start_ns,omitempty"`
	EndNs   int64 `json:"end_ns,omitempty"`
}

// Op appends an executed operator (no-op on nil), stamping its
// wall-clock interval unless the caller set one explicitly.
func (t *Trace) Op(op OperatorTrace) {
	if t == nil {
		return
	}
	now := time.Now().UnixNano()
	if op.StartNs == 0 {
		switch {
		case t.prevNs != 0:
			op.StartNs = t.prevNs
		case t.StartNs != 0:
			op.StartNs = t.StartNs
		default:
			op.StartNs = now
		}
	}
	if op.EndNs == 0 {
		op.EndNs = now
	}
	if op.EndNs < op.StartNs {
		op.EndNs = op.StartNs
	}
	t.prevNs = op.EndNs
	t.Operators = append(t.Operators, op)
}

// Predicate appends one entry of the chosen filter ordering (no-op on
// nil).
func (t *Trace) Predicate(p PredicateTrace) {
	if t != nil {
		t.Predicates = append(t.Predicates, p)
	}
}

// String renders the trace as an indented human-readable summary.
func (t *Trace) String() string {
	if t == nil {
		return "(no trace)"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "query on %s: parallelism=%d threshold=%g rows=%d\n",
		t.Table, t.Parallelism, t.ProbeThreshold, t.RowsQualified)
	if len(t.Predicates) > 0 {
		b.WriteString("filter order:\n")
		for i, p := range t.Predicates {
			fmt.Fprintf(&b, "  %d. col=%d %s path=%s sel=%.3g\n",
				i+1, p.Column, p.Op, p.Path, p.EstimatedSelectivity)
		}
	}
	if len(t.Operators) > 0 {
		b.WriteString("operators:\n")
		for _, op := range t.Operators {
			fmt.Fprintf(&b, "  %s/%s", op.Partition, op.Name)
			if op.Path != "" {
				fmt.Fprintf(&b, "[%s]", op.Path)
			}
			if op.Column >= 0 {
				fmt.Fprintf(&b, " col=%d", op.Column)
			}
			fmt.Fprintf(&b, " in=%d out=%d", op.RowsIn, op.RowsOut)
			if op.Morsels > 0 {
				fmt.Fprintf(&b, " morsels=%d", op.Morsels)
			}
			if op.SwitchedToProbe {
				fmt.Fprintf(&b, " switched-to-probe (fraction=%.3g)", op.CandidateFraction)
			}
			b.WriteByte('\n')
		}
	}
	if len(t.WorkerMorsels) > 0 {
		fmt.Fprintf(&b, "worker morsels: %v\n", t.WorkerMorsels)
	}
	fmt.Fprintf(&b, "modeled cost: DRAM=%dns %s=%dns page_reads=%d\n",
		t.DRAMNs, deviceLabel(t.Device), t.DeviceNs, t.PageReads)
	return b.String()
}

// deviceLabel substitutes a placeholder for an unset device name.
func deviceLabel(name string) string {
	if name == "" {
		return "device"
	}
	return name
}
