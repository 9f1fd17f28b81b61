package exec

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"tierdb/internal/dict"
	"tierdb/internal/metrics"
	"tierdb/internal/schema"
	"tierdb/internal/table"
	"tierdb/internal/value"
)

// TestRandomQueriesMatchBruteForce is the executor's main property
// test: random tables, random layouts, random conjunctive queries —
// results must always equal the row-by-row evaluation, regardless of
// predicate ordering, scan/probe switching, or tiering.
func TestRandomQueriesMatchBruteForce(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		cols := 2 + rng.Intn(5)
		rows := 100 + rng.Intn(2000)

		fields := make([]schema.Field, cols)
		for i := range fields {
			fields[i] = schema.Field{Name: fmt.Sprintf("c%d", i), Type: value.Int64}
		}
		tbl, err := table.New("prop", schema.MustNew(fields), table.Options{})
		if err != nil {
			t.Fatal(err)
		}
		domains := make([]int, cols)
		for i := range domains {
			domains[i] = 1 + rng.Intn(50)
		}
		data := make([][]value.Value, rows)
		for r := range data {
			row := make([]value.Value, cols)
			for c := range row {
				row[c] = value.NewInt(int64(rng.Intn(domains[c])))
			}
			data[r] = row
		}
		if err := tbl.BulkAppend(data); err != nil {
			t.Fatal(err)
		}
		layout := make([]bool, cols)
		anyDRAM := false
		for i := range layout {
			layout[i] = rng.Intn(2) == 0
			anyDRAM = anyDRAM || layout[i]
		}
		if !anyDRAM {
			layout[0] = true
		}
		if err := tbl.ApplyLayout(layout); err != nil {
			t.Fatal(err)
		}
		// Sometimes add an index and some delta rows.
		if rng.Intn(2) == 0 {
			if err := tbl.CreateIndex(rng.Intn(cols)); err != nil {
				t.Fatal(err)
			}
		}
		if rng.Intn(2) == 0 {
			mgr := tbl.Manager()
			for j := 0; j < rng.Intn(50); j++ {
				tx := mgr.Begin()
				row := make([]value.Value, cols)
				for c := range row {
					row[c] = value.NewInt(int64(rng.Intn(domains[c])))
				}
				if err := tbl.Insert(tx, row); err != nil {
					t.Fatal(err)
				}
				if _, err := mgr.Commit(tx); err != nil {
					t.Fatal(err)
				}
			}
		}

		e := New(tbl, Options{ProbeThreshold: []float64{1, 0.01, DefaultProbeThreshold}[rng.Intn(3)]})
		for q := 0; q < 10; q++ {
			nPreds := 1 + rng.Intn(3)
			preds := make([]Predicate, nPreds)
			for i := range preds {
				col := rng.Intn(cols)
				if rng.Intn(2) == 0 {
					preds[i] = Predicate{Column: col, Op: Eq, Value: value.NewInt(int64(rng.Intn(domains[col])))}
				} else {
					lo := int64(rng.Intn(domains[col]))
					hi := lo + int64(rng.Intn(10))
					preds[i] = Predicate{Column: col, Op: Between, Value: value.NewInt(lo), Hi: value.NewInt(hi)}
				}
			}
			res, err := e.Run(Query{Predicates: preds}, nil)
			if err != nil {
				t.Fatalf("trial %d query %d: %v", trial, q, err)
			}
			want := bruteForce(t, tbl, Query{Predicates: preds})
			if !sameIDs(res.IDs, want) {
				t.Fatalf("trial %d query %d (layout %v, preds %+v): got %d rows, want %d",
					trial, q, layout, preds, len(res.IDs), len(want))
			}
			explainMatchesRun(t, e, Query{Predicates: preds}, fmt.Sprintf("trial %d query %d (layout %v)", trial, q, layout))
		}
	}
}

// TestZonePruningMatchesBruteForce runs random queries over clustered
// columns — repeating sorted runs, a constant tail like merged inserts' zero
// delivery date, and a float column holding NaN and −0 — long enough to
// span several zones, so a full scan skips the zones a DRAM conjunct
// rules out. With a delta, deleted rows, an equality on a value the
// dictionary does not hold and ranges with lo > hi, every result at
// Parallelism 1 and 2 must equal the row-by-row evaluation, and some
// first scans must have read fewer rows than the main holds.
func TestZonePruningMatchesBruteForce(t *testing.T) {
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	pruned := 0
	for trial := 0; trial < 8; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		rows := 5*dict.ZoneRows + rng.Intn(dict.ZoneRows)
		fields := []schema.Field{
			{Name: "run", Type: value.Int64}, {Name: "day", Type: value.Int64},
			{Name: "noise", Type: value.Int64}, {Name: "f", Type: value.Float64},
		}
		tbl, err := table.New("zones", schema.MustNew(fields), table.Options{})
		if err != nil {
			t.Fatal(err)
		}
		row := func(r int) []value.Value {
			day := int64(1 + rng.Intn(400))
			if r > rows*7/10 {
				day = 0 // the tail's deliveries are pending
			}
			f := []float64{float64(r / 5000), nan, negZero, 0}[rng.Intn(4)*(r/7000%2)]
			return []value.Value{value.NewInt(int64(r / 3000 % 5)), value.NewInt(day), value.NewInt(int64(rng.Intn(50))), value.NewFloat(f)}
		}
		data := make([][]value.Value, rows)
		for r := range data {
			data[r] = row(r)
		}
		if err := tbl.BulkAppend(data); err != nil {
			t.Fatal(err)
		}
		layout := []bool{true, trial&1 == 0, trial&2 == 0, trial&4 == 0} // every placement of the other three
		if err := tbl.ApplyLayout(layout); err != nil {
			t.Fatal(err)
		}
		mgr := tbl.Manager()
		for j := 0; j < 40; j++ {
			tx := mgr.Begin()
			if j%2 == 0 {
				err = tbl.Delete(tx, table.RowID(rng.Intn(rows)))
			} else {
				err = tbl.Insert(tx, row(rng.Intn(rows)))
			}
			if err != nil {
				t.Fatal(err)
			}
			if _, err := mgr.Commit(tx); err != nil {
				t.Fatal(err)
			}
		}
		preds := []Predicate{
			{Column: 0, Op: Eq, Value: value.NewInt(int64(rng.Intn(5)))},
			// An equality on a value absent from the dictionary, and a range
			// that has lo > hi in some trials.
			{Column: 0, Op: Eq, Value: value.NewInt(999)},
			{Column: 0, Op: Between, Value: value.NewInt(int64(rng.Intn(6))), Hi: value.NewInt(int64(rng.Intn(6)))},
			{Column: 1, Op: Between, Value: value.NewInt(0), Hi: value.NewInt(0)},
			{Column: 1, Op: Between, Value: value.NewInt(int64(rng.Intn(400))), Hi: value.NewInt(int64(rng.Intn(400)))},
			{Column: 2, Op: Eq, Value: value.NewInt(int64(rng.Intn(50)))},
			{Column: 3, Op: Eq, Value: value.NewFloat(nan)},
			{Column: 3, Op: Eq, Value: value.NewFloat(0)},
			{Column: 3, Op: Between, Value: value.NewFloat(negZero), Hi: value.NewFloat(float64(rng.Intn(8)))},
			{Column: 3, Op: Between, Value: value.NewFloat(nan), Hi: value.NewFloat(1)},
		}
		// Morsels within a zone, across zone boundaries and spanning the
		// whole main, where one morsel holds several admitted stretches.
		morsel := []int{64, 3008, 4096, DefaultMorselRows, 1 << 17}[trial%5]
		visible := visibleRows(t, tbl)
		for q := 0; q < 12; q++ {
			query := Query{}
			for n := 1 + rng.Intn(3); len(query.Predicates) < n; {
				query.Predicates = append(query.Predicates, preds[rng.Intn(len(preds))])
			}
			want := visible.match(query)
			where := fmt.Sprintf("trial %d query %d (layout %v, preds %+v)", trial, q, layout, query.Predicates)
			for _, par := range []int{1, 2} {
				e := New(tbl, Options{Parallelism: par, morselRows: morsel})
				res, tr, err := e.RunTracedCtx(context.Background(), query, nil)
				if err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				if !slices.Equal(res.IDs, want) {
					t.Fatalf("%s at Parallelism %d: got %d rows, want %d", where, par, len(res.IDs), len(want))
				}
				if op := tr.Operators[0]; op.Name == "scan" && op.RowsIn < tbl.MainRows() {
					pruned++
				}
				explainMatchesRun(t, e, query, where)
			}
		}
	}
	if pruned == 0 {
		t.Fatal("no full scan skipped a zone")
	}
}

// explainMatchesRun checks that EXPLAIN is the plan the run executes:
// Explain's predicted operators equal the traced run's main-partition
// predicate operators in column and storage path always, and in
// operator name and switchover whenever the estimated candidate
// fraction Explain decided on and the observed one the run decided on
// fall on the same side of the probe threshold. The run stops at the
// first empty candidate list, so it may execute a prefix of the plan.
func explainMatchesRun(t *testing.T, e *Executor, q Query, where string) {
	t.Helper()
	plan, err := e.Explain(q)
	if err != nil {
		t.Fatalf("%s: Explain: %v", where, err)
	}
	_, tr, err := e.RunTracedCtx(context.Background(), q, nil)
	if err != nil {
		t.Fatalf("%s: RunTracedCtx: %v", where, err)
	}
	if len(plan.Predicates) != len(tr.Predicates) {
		t.Fatalf("%s: Explain orders %d predicates, the run %d", where, len(plan.Predicates), len(tr.Predicates))
	}
	for i := range plan.Predicates {
		if plan.Predicates[i] != tr.Predicates[i] {
			t.Errorf("%s: filter order differs at %d: Explain %+v, run %+v", where, i, plan.Predicates[i], tr.Predicates[i])
		}
	}
	var ran []metrics.OperatorTrace
	for _, op := range tr.Operators {
		if op.Partition == "main" && op.Column >= 0 {
			ran = append(ran, op)
		}
	}
	mainRows := e.tbl.MainRows()
	switch {
	case len(ran) > len(plan.Operators):
		t.Fatalf("%s: the run executed %d predicate operators, Explain predicted %d", where, len(ran), len(plan.Operators))
	case len(ran) < len(plan.Operators) && mainRows > 0 && ran[len(ran)-1].RowsOut != 0:
		t.Errorf("%s: the run stopped after %d of %d operators with %d candidates left", where, len(ran), len(plan.Operators), ran[len(ran)-1].RowsOut)
	}
	estimated := 1.0
	for i, got := range ran {
		want := plan.Operators[i]
		if got.Column != want.Column || got.Path != want.Path {
			t.Errorf("%s: operator %d: ran on column %d path %s, Explain predicted column %d path %s",
				where, i, got.Column, got.Path, want.Column, want.Path)
		}
		sameSide := true
		if i > 0 {
			observed := float64(ran[i-1].RowsOut) / float64(mainRows)
			sameSide = (estimated <= e.threshold) == (observed <= e.threshold)
		}
		if sameSide && (got.Name != want.Name || got.SwitchedToProbe != want.SwitchedToProbe) {
			t.Errorf("%s: operator %d: ran %s (switched %v), Explain predicted %s (switched %v)",
				where, i, got.Name, got.SwitchedToProbe, want.Name, want.SwitchedToProbe)
		}
		if want.RowsIn != 0 || want.RowsOut != 0 || want.StartNs != 0 || want.EndNs != 0 || want.PageReads != 0 {
			t.Errorf("%s: predicted operator %d carries observed fields: %+v", where, i, want)
		}
		estimated *= plan.Predicates[i].EstimatedSelectivity
	}
}

// TestConcurrentReadersAndWriters exercises snapshot isolation under
// parallel load: with an insert-only workload, the count of visible
// matching rows must never shrink across a reader's successive queries.
func TestConcurrentReadersAndWriters(t *testing.T) {
	tbl, _ := newTable(t, 500, nil)
	e := New(tbl, Options{})
	mgr := tbl.Manager()
	var wg sync.WaitGroup

	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tx := mgr.Begin()
				err := tbl.Insert(tx, []value.Value{
					value.NewInt(int64(10000 + w*1000 + i)),
					value.NewInt(3), value.NewInt(3), value.NewInt(3),
				})
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := mgr.Commit(tx); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev := -1
			for i := 0; i < 100; i++ {
				res, err := e.Run(Query{Predicates: []Predicate{
					{Column: 1, Op: Eq, Value: value.NewInt(3)},
				}}, nil)
				if err != nil {
					t.Error(err)
					return
				}
				if len(res.IDs) < prev {
					t.Errorf("visible count shrank: %d -> %d", prev, len(res.IDs))
					return
				}
				prev = len(res.IDs)
			}
		}()
	}
	wg.Wait()
}
