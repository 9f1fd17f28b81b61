// Package workload captures executed query plans — the database's plan
// cache — and turns them into column selection inputs (paper Section
// I-B: "We separate attributes ... by analyzing the database's plan
// cache"). Each distinct set of filtered columns is one plan; its
// execution count is the query frequency b_j of the optimization model.
package workload

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"

	"tierdb/internal/core"
	"tierdb/internal/table"
)

// Plan is one distinct cached plan: the filtered column set and how
// often it ran.
type Plan struct {
	Columns []int
	Count   float64
}

// historyWindows is how many closed windows a plan cache keeps for
// forecasting.
const historyWindows = 64

// A plan is counted twice over: executions since the cache was created
// or Reset, and executions in the open window (the paper's Section VI
// moving window).
const (
	lifetime = iota
	window
)

// entry is one distinct plan; it lives while either count is positive.
type entry struct {
	key     string
	columns []int
	count   [2]float64
}

// PlanCache is the workload recorder: one Record counts an execution
// into the lifetime plan counts and into the open window under one
// lock, so closing the window (Rotate) can never lose or double-count
// a concurrent record. Safe for concurrent use.
type PlanCache struct {
	mu      sync.Mutex
	entries map[string]*entry
	history *History
}

// NewPlanCache returns an empty plan cache.
func NewPlanCache() *PlanCache {
	return &PlanCache{entries: make(map[string]*entry), history: NewHistory(historyWindows)}
}

// Record notes one execution of a plan filtering the given columns.
// Column order within a plan does not matter.
func (pc *PlanCache) Record(columns []int) { pc.RecordN(columns, 1) }

// RecordN notes n executions at once (bulk import of an external plan
// cache).
func (pc *PlanCache) RecordN(columns []int, n float64) {
	if n <= 0 {
		return
	}
	// The sorted copy and the key stay on the stack for plans of
	// ordinary width, so counting a known plan allocates nothing.
	var colBuf [8]int
	cols := append(colBuf[:0], columns...)
	slices.Sort(cols)
	// A plan is a column set: two predicates on one column name it once.
	cols = slices.Compact(cols)
	var keyBuf [64]byte
	key := appendKey(keyBuf[:0], cols)
	pc.mu.Lock()
	defer pc.mu.Unlock()
	e, ok := pc.entries[string(key)]
	if !ok {
		e = &entry{key: string(key), columns: slices.Clone(cols)}
		pc.entries[e.key] = e
	}
	e.count[lifetime] += n
	e.count[window] += n
}

// planKey is the map key of a sorted column set.
func planKey(sorted []int) string { return string(appendKey(nil, sorted)) }

// appendKey appends planKey(sorted) to dst.
func appendKey(dst []byte, sorted []int) []byte {
	for i, c := range sorted {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(c), 10)
	}
	return dst
}

// collect returns the plans whose count of the given kind is positive,
// ordered by descending count (ties by key) for stable output. Caller
// holds pc.mu.
func (pc *PlanCache) collect(kind int) []Plan {
	picked := make([]*entry, 0, len(pc.entries))
	for _, e := range pc.entries {
		if e.count[kind] > 0 {
			picked = append(picked, e)
		}
	}
	sort.Slice(picked, func(a, b int) bool {
		if ca, cb := picked[a].count[kind], picked[b].count[kind]; ca != cb {
			return ca > cb
		}
		return picked[a].key < picked[b].key
	})
	out := make([]Plan, len(picked))
	for i, e := range picked {
		out[i] = Plan{Columns: slices.Clone(e.columns), Count: e.count[kind]}
	}
	return out
}

// zero clears every entry's count of the given kind and drops the
// entries whose other count is zero too. Caller holds pc.mu.
func (pc *PlanCache) zero(kind int) {
	for k, e := range pc.entries {
		e.count[kind] = 0
		if e.count[1-kind] == 0 {
			delete(pc.entries, k)
		}
	}
}

// Plans returns all distinct plans recorded since creation or the last
// Reset.
func (pc *PlanCache) Plans() []Plan {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.collect(lifetime)
}

// Len returns the number of distinct plans.
func (pc *PlanCache) Len() int { return len(pc.Plans()) }

// Reset clears the lifetime counts (e.g. when an application keeps its
// own moving window over the plan cache). The open window and the
// closed-window history are untouched.
func (pc *PlanCache) Reset() {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.zero(lifetime)
}

// CurrentPlans returns the distinct plans of the open (not yet closed)
// window.
func (pc *PlanCache) CurrentPlans() []Plan {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.collect(window)
}

// Rotate closes the open window: its plans are frozen into the history
// and returned, and a new window opens. Every Record lands in exactly
// one window — the adaptive placement scheduler consumes "the workload
// since the last cycle" this way.
func (pc *PlanCache) Rotate() []Plan {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	plans := pc.collect(window)
	pc.zero(window)
	pc.history.Append(plans)
	return plans
}

// History returns the closed windows.
func (pc *PlanCache) History() *History { return pc.history }

// ExtractPlans builds the column selection input for a table from its
// statistics (sizes, selectivities) and a plan list — the lifetime
// plans, a closed window, or a forecast template. Columns listed in
// pinned are marked Pinned (e.g. primary keys under an SLA).
func ExtractPlans(tbl *table.Table, plans []Plan, pinned []int) (*core.Workload, error) {
	s := tbl.Schema()
	cols := make([]core.Column, s.Len())
	for i := 0; i < s.Len(); i++ {
		cols[i] = core.Column{
			Name:        s.Field(i).Name,
			Size:        tbl.ColumnBytes(i),
			Selectivity: tbl.Selectivity(i),
		}
		if cols[i].Size <= 0 {
			cols[i].Size = 1 // empty tables: keep the model well-formed
		}
	}
	for _, p := range pinned {
		if p < 0 || p >= len(cols) {
			return nil, fmt.Errorf("workload: pinned column %d out of range (%d)", p, len(cols))
		}
		cols[p].Pinned = true
	}
	queries := make([]core.Query, 0, len(plans))
	for _, p := range plans {
		for _, c := range p.Columns {
			if c < 0 || c >= len(cols) {
				return nil, fmt.Errorf("workload: plan references column %d, table has %d", c, len(cols))
			}
		}
		queries = append(queries, core.Query{Columns: p.Columns, Frequency: p.Count})
	}
	w := &core.Workload{Columns: cols, Queries: queries}
	if err := w.Validate(); err != nil {
		return nil, fmt.Errorf("workload: extracted workload invalid: %w", err)
	}
	return w, nil
}
