package tierdb

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// Tests of the executor's plan step seen through the public API: a
// query is validated before anything runs, and EXPLAIN shows the plan
// the run executes.

// TestWrongTypedOperandIsAnError holds "error ⇒ no effect" for operands
// whose type does not match the column, on every path a predicate can
// take: index, MRC, SSCG and both delta evaluations. Select must return
// an error — not panic in a cross-type comparison — charge no modeled
// time and record no operator.
func TestWrongTypedOperandIsAnError(t *testing.T) {
	operands := []struct {
		name string
		pred func(*Table) (Predicate, error)
	}{
		{"Eq String on Int64", func(tbl *Table) (Predicate, error) { return tbl.Eq("a", String("x")) }},
		{"Between String/String", func(tbl *Table) (Predicate, error) { return tbl.Between("a", String("a"), String("z")) }},
		{"Between Int64/String", func(tbl *Table) (Predicate, error) { return tbl.Between("a", Int(1), String("z")) }},
	}
	for _, merged := range []bool{false, true} {
		for _, indexed := range []bool{false, true} {
			for _, tiered := range []bool{false, true} {
				for _, operand := range operands {
					name := fmt.Sprintf("merged=%v/indexed=%v/tiered=%v/%s", merged, indexed, tiered, operand.name)
					t.Run(name, func(t *testing.T) {
						db, err := Open(Config{})
						if err != nil {
							t.Fatal(err)
						}
						defer db.Close()
						tbl, err := db.CreateTable("t", []Field{{Name: "a", Type: Int64Type}, {Name: "b", Type: Int64Type}})
						if err != nil {
							t.Fatal(err)
						}
						if tiered {
							if err := tbl.ApplyLayout(Layout{InDRAM: []bool{false, true}}); err != nil {
								t.Fatal(err)
							}
						}
						rows := [][]Value{{Int(1), Int(10)}, {Int(2), Int(20)}, {Int(3), Int(30)}}
						if merged {
							if err := tbl.BulkLoad(rows); err != nil {
								t.Fatal(err)
							}
						} else {
							for _, row := range rows {
								if err := tbl.Insert(row); err != nil {
									t.Fatal(err)
								}
							}
						}
						if indexed {
							if err := tbl.CreateIndex("a"); err != nil {
								t.Fatal(err)
							}
						}
						if got := tbl.Inner().MainRows() > 0; got != merged {
							t.Fatalf("main partition populated = %v, want %v", got, merged)
						}
						wrong, err := operand.pred(tbl)
						if err != nil {
							t.Fatal(err)
						}
						// A well-typed predicate next to it, so the wrong one
						// is met both as a first and as a later filter.
						right := mustEq(t, tbl, "b", 20)
						for _, preds := range [][]Predicate{{wrong}, {right, wrong}, {wrong, right}} {
							db.Clock().Reset()
							before := db.Stats().Counters
							q, err := tbl.prepQuery(preds, []string{"b"})
							if err != nil {
								t.Fatal(err)
							}
							res, tr, err := tbl.Executor().RunTracedCtx(context.Background(), q, nil)
							if err == nil {
								t.Fatalf("Select(%+v) = %+v, want an error", preds, res)
							}
							if tr != nil && len(tr.Operators) > 0 {
								t.Errorf("rejected query recorded operators: %+v", tr.Operators)
							}
							if d := db.Clock().Elapsed(); d != 0 {
								t.Errorf("rejected query charged %v of modeled time", d)
							}
							for name, n := range db.Stats().Counters {
								if strings.HasPrefix(name, "exec.") && n != before[name] {
									t.Errorf("rejected query moved %s: %d -> %d", name, before[name], n)
								}
							}
						}
						// The table still answers.
						if res, err := tbl.Select(nil, []Predicate{right}, "a"); err != nil || len(res.IDs) != 1 {
							t.Errorf("well-typed query after the rejected ones = %+v, %v; want one row", res, err)
						}
					})
				}
			}
		}
	}
}

// TestExplainShowsTheRunsOperators pins the case where a column's rank
// in the filter order and the storage its operator touches differ: a
// later predicate on an indexed, tiered column. Only the first filter
// can use an index, so the run probes the SSCG on secondary storage,
// and EXPLAIN — built from the same plan and the same decision function
// — must label the node that way too, not with the index path on the
// DRAM tier. EXPLAIN and ANALYZE must agree on operator, path and tier
// for every predicate node.
func TestExplainShowsTheRunsOperators(t *testing.T) {
	db, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable("t", []Field{{Name: "a", Type: Int64Type}, {Name: "b", Type: Int64Type}})
	if err != nil {
		t.Fatal(err)
	}
	// a is unique, so one candidate of 20 000 rows is below the 0.01 %
	// probe threshold both as estimated and as observed.
	rows := make([][]Value, 20000)
	for i := range rows {
		rows[i] = []Value{Int(int64(i)), Int(int64(i % 100))}
	}
	if err := tbl.BulkLoad(rows); err != nil {
		t.Fatal(err)
	}
	if err := tbl.ApplyLayout(Layout{InDRAM: []bool{true, false}}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []string{"a", "b"} {
		if err := tbl.CreateIndex(c); err != nil {
			t.Fatal(err)
		}
	}
	preds := []Predicate{mustEq(t, tbl, "a", 5), mustEq(t, tbl, "b", 5)}
	plan, err := tbl.Explain(preds)
	if err != nil {
		t.Fatal(err)
	}
	_, analyzed, err := tbl.SelectExplained(nil, preds)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Nodes) != 2 || len(analyzed.Nodes) < 2 {
		t.Fatalf("EXPLAIN has %d nodes, ANALYZE %d; want 2 predicate nodes each", len(plan.Nodes), len(analyzed.Nodes))
	}
	for i, n := range plan.Nodes {
		ran := analyzed.Nodes[i]
		if n.Operator != ran.Operator || n.Path != ran.Path || n.Tier != ran.Tier || n.Column != ran.Column || n.SwitchedToProbe != ran.SwitchedToProbe {
			t.Errorf("node %d: EXPLAIN %s[%s] on %s col %d switched=%v, ANALYZE %s[%s] on %s col %d switched=%v",
				i, n.Operator, n.Path, n.Tier, n.Column, n.SwitchedToProbe,
				ran.Operator, ran.Path, ran.Tier, ran.Column, ran.SwitchedToProbe)
		}
	}
	if b := plan.Nodes[1]; b.ColumnName != "b" || b.Operator != "probe" || b.Path != "sscg" || b.Tier != "secondary" {
		t.Errorf("EXPLAIN node for b = %s[%s] on %s (%s), want probe[sscg] on secondary", b.Operator, b.Path, b.Tier, b.ColumnName)
	}
}

// TestExplainLabelsSharedColumnPredicates: with two predicates on one
// column, each operator node names the predicate it ran, not the last
// one written on that column. The equality is the more selective, so
// it runs first — the scan — and the range probes its candidates.
func TestExplainLabelsSharedColumnPredicates(t *testing.T) {
	db, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable("t", []Field{{Name: "id", Type: Int64Type}})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]Value, 2000)
	for i := range rows {
		rows[i] = []Value{Int(int64(i))}
	}
	if err := tbl.BulkLoad(rows); err != nil {
		t.Fatal(err)
	}
	span, err := tbl.Between("id", Int(0), Int(500))
	if err != nil {
		t.Fatal(err)
	}
	preds := []Predicate{span, mustEq(t, tbl, "id", 7)}
	plan, err := tbl.Explain(preds)
	if err != nil {
		t.Fatal(err)
	}
	_, analyzed, err := tbl.SelectExplained(nil, preds)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct{ op, pred string }{{"scan", "id = 7"}, {"probe", "id between 0 and 500"}}
	for _, p := range []*ExplainPlan{plan, analyzed} {
		var got []struct{ op, pred string }
		for _, n := range p.Nodes {
			if n.Partition == "main" && n.Column >= 0 {
				got = append(got, struct{ op, pred string }{n.Operator, n.Predicate})
			}
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s main predicate nodes = %v, want %v", p.Mode, got, want)
		}
	}
}
