package tierdb

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"tierdb/internal/core"
	"tierdb/internal/exec"
	"tierdb/internal/explain"
	"tierdb/internal/metrics"
	"tierdb/internal/trace"
)

// ExplainPlan is the structured EXPLAIN/ANALYZE result: one node per
// operator with modeled cost from the advisor's own model, observed
// execution detail in ANALYZE mode, and a placement attribution
// section pricing the live layout against the advisor's recommendation
// (the regret of the current placement). See internal/explain.
type ExplainPlan = explain.Plan

// ExplainSpec is the stringly-typed predicate form EXPLAIN accepts via
// /explain; the table resolves values against its schema.
type ExplainSpec = explain.PredicateSpec

// RenderExplain renders a plan as the human-readable tree tierctl
// explain and /explain?format=text print.
func RenderExplain(p *ExplainPlan) string { return explain.RenderText(p) }

// Explain plans the query without executing it: the returned plan
// carries the filter ordering, access paths and modeled costs the
// executor would use, plus the placement attribution section. Nothing
// is charged, recorded or captured.
func (t *Table) Explain(predicates []Predicate, project ...string) (*ExplainPlan, error) {
	q, err := t.resolveQuery(predicates, project)
	if err != nil {
		return nil, err
	}
	tr, err := t.exec.Explain(q)
	if err != nil {
		return nil, err
	}
	return t.buildExplain(explain.ModeExplain, q, tr, 0, "")
}

// SelectExplainedCtx is Select plus an ANALYZE plan: the query executes
// normally (feeding the plan cache and observed selectivities exactly
// like Select) and the plan annotates every operator with observed
// wall time, rows, page reads and selectivity next to the modeled
// numbers. EXPLAIN is strictly opt-in — plain Select never pays for it.
// A sampled request span carried by ctx links the plan to the trace
// tree via its trace id.
func (t *Table) SelectExplainedCtx(ctx context.Context, tx *Tx, predicates []Predicate, project ...string) (*SelectResult, *ExplainPlan, error) {
	q, err := t.prepQuery(predicates, project)
	if err != nil {
		return nil, nil, err
	}
	start := time.Now()
	res, tr, err := t.exec.RunTracedCtx(ctx, q, tx)
	if err != nil {
		return nil, nil, err
	}
	wall := time.Since(start).Nanoseconds()
	traceID := ""
	if span := trace.FromContext(ctx); span != nil {
		traceID = span.Trace.String()
	}
	plan, err := t.buildExplain(explain.ModeAnalyze, q, tr, wall, traceID)
	if err != nil {
		return nil, nil, err
	}
	return res, plan, nil
}

// compileSpec resolves one wire-form predicate against the schema,
// parsing operands by the column's type.
func (t *Table) compileSpec(s ExplainSpec) (Predicate, error) {
	c := t.inner.Schema().IndexOf(s.Column)
	if c < 0 {
		return Predicate{}, fmt.Errorf("tierdb: table %s has no column %q", t.inner.Name(), s.Column)
	}
	typ := t.inner.Schema().Field(c).Type
	parse := func(raw string) (Value, error) {
		switch typ {
		case Int64Type:
			n, err := strconv.ParseInt(raw, 10, 64)
			if err != nil {
				return Value{}, fmt.Errorf("tierdb: column %s: bad int64 %q", s.Column, raw)
			}
			return Int(n), nil
		case Float64Type:
			f, err := strconv.ParseFloat(raw, 64)
			if err != nil {
				return Value{}, fmt.Errorf("tierdb: column %s: bad float64 %q", s.Column, raw)
			}
			return Float(f), nil
		default:
			return String(raw), nil
		}
	}
	switch s.Op {
	case "eq", "":
		v, err := parse(s.Value)
		if err != nil {
			return Predicate{}, err
		}
		return t.Eq(s.Column, v)
	case "between":
		lo, err := parse(s.Value)
		if err != nil {
			return Predicate{}, err
		}
		hi, err := parse(s.Hi)
		if err != nil {
			return Predicate{}, err
		}
		return t.Between(s.Column, lo, hi)
	default:
		return Predicate{}, fmt.Errorf("tierdb: unknown predicate op %q (want eq or between)", s.Op)
	}
}

// renderPredicate renders a resolved predicate for plan nodes.
func (t *Table) renderPredicate(p Predicate) string {
	name := t.inner.Schema().Field(p.Column).Name
	if p.Op == exec.Between {
		return fmt.Sprintf("%s between %s and %s", name, p.Value, p.Hi)
	}
	return fmt.Sprintf("%s = %s", name, p.Value)
}

// buildExplain assembles the plan: the advisor's report with its
// zero-value defaults supplies the model selectivities, sizes, live
// placement and recommended placement, so the placement section prices
// exactly what /layout/advisor would recommend right now; the
// executor's trace supplies the operators.
func (t *Table) buildExplain(mode explain.Mode, q exec.Query, tr *metrics.Trace, wallNs int64, traceID string) (*ExplainPlan, error) {
	t.db.registry.Counter("explain.plans").Inc()
	if mode == explain.ModeAnalyze {
		t.db.registry.Counter("explain.analyze").Inc()
	}
	adv, err := t.Advise(AdvisorQuery{})
	if err != nil {
		return nil, err
	}
	cols := make([]explain.ColumnInput, len(adv.Columns))
	for i, c := range adv.Columns {
		cols[i] = explain.ColumnInput{
			Name:              c.Name,
			SizeBytes:         c.SizeBytes,
			Selectivity:       c.Selectivity,
			SelectivitySource: c.SelectivitySource,
			ObservedSamples:   c.ObservedSamples,
			InDRAM:            c.InDRAMNow,
			Recommended:       c.InDRAMRecommended,
		}
	}
	// Distinct predicate columns, first-occurrence order: the model
	// prices each column once however many predicates touch it.
	seen := make(map[int]bool, len(q.Predicates))
	qcols := make([]int, 0, len(q.Predicates))
	texts := make([]string, 0, len(q.Predicates))
	for _, p := range q.Predicates {
		if !seen[p.Column] {
			seen[p.Column] = true
			qcols = append(qcols, p.Column)
		}
		texts = append(texts, t.renderPredicate(p))
	}
	return explain.Build(explain.Input{
		Table:          t.inner.Name(),
		Mode:           mode,
		Device:         tr.Device,
		Parallelism:    tr.Parallelism,
		ProbeThreshold: tr.ProbeThreshold,
		Costs:          core.DefaultCostParams(),
		Columns:        cols,
		QueryColumns:   qcols,
		ProjectColumns: q.Project,
		Predicates:     texts,
		Trace:          tr,
		WallNs:         wallNs,
		TraceID:        traceID,
	})
}
