package tierdb

import (
	"context"
	"math"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"tierdb/internal/core"
)

func testFields() []Field {
	return []Field{
		{Name: "id", Type: Int64Type},
		{Name: "region", Type: Int64Type},
		{Name: "amount", Type: Float64Type},
		{Name: "note", Type: StringType, Width: 16},
	}
}

func openLoaded(t *testing.T, n int) (*DB, *Table) {
	t.Helper()
	db, err := Open(Config{Device: "3D XPoint", CacheFrames: 64})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTable("orders", testFields())
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]Value, n)
	for i := range rows {
		rows[i] = []Value{Int(int64(i)), Int(int64(i % 8)), Float(float64(i) / 2), String("n")}
	}
	if err := tbl.BulkLoad(rows); err != nil {
		t.Fatal(err)
	}
	return db, tbl
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(Config{Device: "tape"}); err == nil {
		t.Error("unknown device accepted")
	}
	db, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if db.Device().Name != "3D XPoint" {
		t.Errorf("default device = %q", db.Device().Name)
	}
}

// TestOpenRejectsParallelismAboveBound opens at the bound and past it;
// no query runs, so no worker is ever started at either value.
func TestOpenRejectsParallelismAboveBound(t *testing.T) {
	if _, err := Open(Config{Parallelism: 1 << 20}); err == nil || !strings.Contains(err.Error(), "256") {
		t.Errorf("Parallelism 1<<20: err = %v, want the bound of 256 named", err)
	}
	db, err := Open(Config{Parallelism: MaxParallelism})
	if err != nil {
		t.Fatalf("Parallelism at the bound: %v", err)
	}
	db.Close()
}

func TestCreateAndLookupTable(t *testing.T) {
	db, _ := openLoaded(t, 10)
	if _, err := db.CreateTable("orders", testFields()); err == nil {
		t.Error("duplicate table accepted")
	}
	tbl, err := db.Table("orders")
	if err != nil || tbl.Name() != "orders" {
		t.Errorf("Table lookup: %v, %v", tbl, err)
	}
	if _, err := db.Table("missing"); err == nil {
		t.Error("missing table lookup succeeded")
	}
	if names := db.Tables(); len(names) != 1 || names[0] != "orders" {
		t.Errorf("Tables = %v", names)
	}
	if len(tbl.Columns()) != 4 {
		t.Error("Columns wrong")
	}
}

func TestSelectAndProjection(t *testing.T) {
	_, tbl := openLoaded(t, 100)
	p, err := tbl.Eq("region", Int(3))
	if err != nil {
		t.Fatal(err)
	}
	res, err := tbl.Select(nil, []Predicate{p}, "id", "amount")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != 13 { // ids 3, 11, ..., 99
		t.Errorf("matches = %d, want 13", len(res.IDs))
	}
	for i, id := range res.IDs {
		if res.Rows[i][0].Int() != int64(id) {
			t.Errorf("projection mismatch at %d", i)
		}
	}
	if _, err := tbl.Eq("missing", Int(0)); err == nil {
		t.Error("unknown predicate column accepted")
	}
	if _, err := tbl.Select(nil, nil, "missing"); err == nil {
		t.Error("unknown projected column accepted")
	}
}

func TestSelectFeedsPlanCache(t *testing.T) {
	_, tbl := openLoaded(t, 50)
	p1, _ := tbl.Eq("region", Int(1))
	p2, _ := tbl.Between("id", Int(0), Int(10))
	for i := 0; i < 5; i++ {
		if _, err := tbl.Select(nil, []Predicate{p1, p2}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tbl.Select(nil, []Predicate{p1}); err != nil {
		t.Fatal(err)
	}
	plans := tbl.PlanCache().Plans()
	if len(plans) != 2 {
		t.Fatalf("plans = %d, want 2", len(plans))
	}
	if plans[0].Count != 5 {
		t.Errorf("top plan count = %g", plans[0].Count)
	}
}

// TestTwoPredicatesOnOneColumn pins that a plan is a column set: a
// query filtering one column twice records that column once, so the
// advisor and EXPLAIN ANALYZE, which build the solver's input from the
// plan cache, keep working on the table afterwards.
func TestTwoPredicatesOnOneColumn(t *testing.T) {
	_, tbl := openLoaded(t, 50)
	p1, _ := tbl.Between("id", Int(0), Int(30))
	p2, _ := tbl.Eq("id", Int(7))
	res, err := tbl.Select(nil, []Predicate{p1, p2})
	if err != nil || len(res.IDs) != 1 {
		t.Fatalf("Select = %+v, %v; want one row", res, err)
	}
	plans := tbl.PlanCache().Plans()
	if len(plans) != 1 || len(plans[0].Columns) != 1 {
		t.Fatalf("plans = %+v, want one plan over one column", plans)
	}
	if _, err := tbl.Advise(AdvisorQuery{}); err != nil {
		t.Errorf("Advise after the query: %v", err)
	}
	if _, _, err := tbl.SelectExplainedCtx(context.Background(), nil, []Predicate{p1, p2}); err != nil {
		t.Errorf("EXPLAIN ANALYZE of the query: %v", err)
	}
}

func TestRecommendAndApplyLayout(t *testing.T) {
	_, tbl := openLoaded(t, 2000)
	p1, _ := tbl.Eq("region", Int(1))
	p2, _ := tbl.Between("id", Int(5), Int(10))
	for i := 0; i < 100; i++ {
		if _, err := tbl.Select(nil, []Predicate{p1}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tbl.Select(nil, []Predicate{p2}); err != nil {
		t.Fatal(err)
	}

	full := tbl.MemoryBytes()
	layout, err := tbl.RecommendLayout(PlacementOptions{RelativeBudget: 0.3, Method: MethodILP})
	if err != nil {
		t.Fatal(err)
	}
	// amount and note are never filtered: evicted first.
	if layout.InDRAM[2] || layout.InDRAM[3] {
		t.Error("unfiltered columns kept in DRAM under tight budget")
	}
	if err := tbl.ApplyLayout(layout); err != nil {
		t.Fatal(err)
	}
	if tbl.MemoryBytes() >= full {
		t.Error("memory footprint did not shrink")
	}
	if tbl.SecondaryBytes() == 0 {
		t.Error("nothing moved to secondary storage")
	}
	// Queries still produce the same results after eviction.
	res, err := tbl.Select(nil, []Predicate{p1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != 250 {
		t.Errorf("matches after eviction = %d, want 250", len(res.IDs))
	}
}

func TestRecommendLayoutPinned(t *testing.T) {
	_, tbl := openLoaded(t, 500)
	p, _ := tbl.Eq("region", Int(1))
	if _, err := tbl.Select(nil, []Predicate{p}); err != nil {
		t.Fatal(err)
	}
	layout, err := tbl.RecommendLayout(PlacementOptions{
		RelativeBudget: 0.9,
		Pinned:         []string{"id"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !layout.InDRAM[0] {
		t.Error("pinned column evicted")
	}
	if _, err := tbl.RecommendLayout(PlacementOptions{Pinned: []string{"missing"}}); err == nil {
		t.Error("unknown pinned column accepted")
	}
}

func TestTransactionsThroughFacade(t *testing.T) {
	db, tbl := openLoaded(t, 10)
	tx := db.Begin()
	if err := tbl.InsertTx(tx, []Value{Int(100), Int(1), Float(1), String("tx")}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Delete(tx, 0); err != nil {
		t.Fatal(err)
	}
	if err := db.Commit(tx); err != nil {
		t.Fatal(err)
	}
	if tbl.Rows() != 10 {
		t.Errorf("rows = %d, want 10", tbl.Rows())
	}
	tx2 := db.Begin()
	if err := tbl.Update(tx2, 5, []Value{Int(5), Int(7), Float(9), String("upd")}); err != nil {
		t.Fatal(err)
	}
	if err := db.Commit(tx2); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Merge(); err != nil {
		t.Fatal(err)
	}
	if tbl.Rows() != 10 {
		t.Errorf("rows after merge = %d", tbl.Rows())
	}
	// Abort path.
	tx3 := db.Begin()
	if err := tbl.InsertTx(tx3, []Value{Int(999), Int(0), Float(0), String("x")}); err != nil {
		t.Fatal(err)
	}
	if err := db.Abort(tx3); err != nil {
		t.Fatal(err)
	}
	if tbl.Rows() != 10 {
		t.Error("aborted insert leaked")
	}
}

func TestInsertAutoTransaction(t *testing.T) {
	_, tbl := openLoaded(t, 5)
	if err := tbl.Insert([]Value{Int(50), Int(1), Float(2), String("auto")}); err != nil {
		t.Fatal(err)
	}
	if tbl.Rows() != 6 {
		t.Errorf("rows = %d", tbl.Rows())
	}
	// Invalid row aborts cleanly.
	if err := tbl.Insert([]Value{Int(1)}); err == nil {
		t.Error("short row accepted")
	}
	if tbl.Rows() != 6 {
		t.Error("failed insert changed row count")
	}
}

func TestGetAndSum(t *testing.T) {
	_, tbl := openLoaded(t, 20)
	row, err := tbl.Get(7)
	if err != nil || row[0].Int() != 7 {
		t.Errorf("Get = %v, %v", row, err)
	}
	v, err := tbl.GetValue(7, "region")
	if err != nil || v.Int() != 7 {
		t.Errorf("GetValue = %v, %v", v, err)
	}
	if _, err := tbl.GetValue(7, "missing"); err == nil {
		t.Error("unknown column accepted")
	}
	total, err := tbl.Sum("amount", []RowID{0, 2, 4})
	if err != nil || total != 0+1+2 {
		t.Errorf("Sum = %g, %v", total, err)
	}
	if _, err := tbl.Sum("missing", nil); err == nil {
		t.Error("unknown sum column accepted")
	}
}

func TestIndexThroughFacade(t *testing.T) {
	_, tbl := openLoaded(t, 100)
	if err := tbl.CreateIndex("id"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex("missing"); err == nil {
		t.Error("unknown index column accepted")
	}
	p, _ := tbl.Eq("id", Int(42))
	res, err := tbl.Select(nil, []Predicate{p})
	if err != nil || len(res.IDs) != 1 || res.IDs[0] != 42 {
		t.Errorf("indexed select = %v, %v", res, err)
	}
}

func TestFrontierThroughFacade(t *testing.T) {
	_, tbl := openLoaded(t, 1000)
	p1, _ := tbl.Eq("region", Int(1))
	p2, _ := tbl.Eq("id", Int(3))
	for i := 0; i < 10; i++ {
		tbl.Select(nil, []Predicate{p1})
		tbl.Select(nil, []Predicate{p1, p2})
	}
	points, err := tbl.Frontier([]float64{0, 0.25, 0.5, 0.75, 1}, MethodILP)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 5 {
		t.Fatalf("points = %d", len(points))
	}
	for i := 1; i < len(points); i++ {
		if points[i].RelativePerformance < points[i-1].RelativePerformance-1e-9 {
			t.Error("frontier not monotone")
		}
	}
	if _, err := tbl.Frontier([]float64{0.5}, MethodFrequency); err == nil {
		t.Error("heuristic frontier accepted")
	}
}

// TestSolveZeroMethodIsExplicit: a request that names no method gets
// the explicit solution of Theorem 2, as PlacementOptions documents —
// checked on a seeded Example 1 budget where the ILP answers otherwise.
func TestSolveZeroMethodIsExplicit(t *testing.T) {
	w, err := core.Example1(core.Example1Config{Columns: 50, Queries: 500, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b := int64(0.2 * float64(w.TotalSize()))
	ilp, err := Solve(w, PlacementOptions{Budget: b, Method: MethodILP})
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := Solve(w, PlacementOptions{Budget: b, Method: MethodExplicit})
	if err != nil {
		t.Fatal(err)
	}
	if slices.Equal(ilp.InDRAM, explicit.InDRAM) {
		t.Fatal("ILP and explicit agree at this budget; the check needs one where they differ")
	}
	zero, err := Solve(w, PlacementOptions{Budget: b})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(zero.InDRAM, explicit.InDRAM) || zero.EstimatedCost != explicit.EstimatedCost {
		t.Errorf("zero Method placed %v (cost %g), explicit %v (cost %g)",
			zero.InDRAM, zero.EstimatedCost, explicit.InDRAM, explicit.EstimatedCost)
	}
}

func TestSolveStandalone(t *testing.T) {
	w := &Workload{
		Columns: []WorkloadColumn{
			{Name: "a", Size: 100, Selectivity: 0.01},
			{Name: "b", Size: 100, Selectivity: 0.5},
		},
		Queries: []WorkloadQuery{{Columns: []int{0, 1}, Frequency: 10}},
	}
	for _, m := range []Method{MethodILP, MethodExplicit, MethodFilling, MethodGreedyRatio,
		MethodFrequency, MethodSelectivity, MethodSelectivityFrequency} {
		l, err := Solve(w, PlacementOptions{Budget: 100, Method: m})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if l.Memory > 100 {
			t.Errorf("%s: memory %d over budget", m, l.Memory)
		}
		if m.String() == "" {
			t.Error("empty method name")
		}
	}
	if _, err := Solve(w, PlacementOptions{Method: Method(99)}); err == nil {
		t.Error("unknown method accepted")
	}
	if _, err := Solve(w, PlacementOptions{Current: []bool{true}}); err == nil {
		t.Error("mismatched current accepted")
	}
}

func TestReallocationThroughFacade(t *testing.T) {
	_, tbl := openLoaded(t, 1000)
	p1, _ := tbl.Eq("region", Int(1))
	for i := 0; i < 20; i++ {
		tbl.Select(nil, []Predicate{p1})
	}
	// With a prohibitive beta the recommendation keeps the current
	// (all-DRAM) layout for columns that fit.
	layout, err := tbl.RecommendLayout(PlacementOptions{
		RelativeBudget: 1.0,
		Method:         MethodILP,
		Beta:           1e9,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, in := range layout.InDRAM {
		if !in {
			t.Errorf("column %d evicted despite prohibitive beta and full budget", i)
		}
	}
}

func TestFileBackedDB(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	db, err := Open(Config{Device: "CSSD", PageFile: path})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable("t", testFields())
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]Value, 100)
	for i := range rows {
		rows[i] = []Value{Int(int64(i)), Int(int64(i % 3)), Float(1), String("f")}
	}
	if err := tbl.BulkLoad(rows); err != nil {
		t.Fatal(err)
	}
	layout, err := Solve(&Workload{
		Columns: []WorkloadColumn{
			{Name: "id", Size: 800, Selectivity: 0.01},
			{Name: "region", Size: 800, Selectivity: 0.33},
			{Name: "amount", Size: 800, Selectivity: 0.5},
			{Name: "note", Size: 1600, Selectivity: 1},
		},
		Queries: []WorkloadQuery{{Columns: []int{0}, Frequency: 10}},
	}, PlacementOptions{Budget: 900, Method: MethodILP})
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.ApplyLayout(layout); err != nil {
		t.Fatal(err)
	}
	row, err := tbl.Get(42)
	if err != nil || row[0].Int() != 42 {
		t.Errorf("file-backed Get = %v, %v", row, err)
	}
	if db.Clock().Reads() == 0 {
		t.Error("no timed page reads recorded")
	}
}

func TestVirtualClockAccumulates(t *testing.T) {
	db, tbl := openLoaded(t, 2000)
	layout, err := tbl.RecommendLayout(PlacementOptions{RelativeBudget: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.ApplyLayout(layout); err != nil {
		t.Fatal(err)
	}
	db.Clock().Reset()
	for i := 0; i < 10; i++ {
		if _, err := tbl.Get(RowID(i * 100)); err != nil {
			t.Fatal(err)
		}
	}
	if db.Clock().Elapsed() == 0 {
		t.Error("clock did not advance on tiered reconstruction")
	}
}

// TestNaNSurvivesMerge holds a float column with a NaN to one order in
// the delta, in a merged MRC and in the SSCG: every value reads back as
// written, a range predicate skips the NaN and an equality predicate on
// NaN finds exactly its row.
func TestNaNSurvivesMerge(t *testing.T) {
	db, err := Open(Config{Device: "3D XPoint", CacheFrames: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable("nan", []Field{{Name: "id", Type: Int64Type}, {Name: "f", Type: Float64Type}})
	if err != nil {
		t.Fatal(err)
	}
	floats := []float64{1.5, math.NaN(), 2.5}
	for i, f := range floats {
		if err := tbl.Insert([]Value{Int(int64(i)), Float(f)}); err != nil {
			t.Fatal(err)
		}
	}
	between, err := tbl.Between("f", Float(1), Float(3))
	if err != nil {
		t.Fatal(err)
	}
	eqNaN, err := tbl.Eq("f", Float(math.NaN()))
	if err != nil {
		t.Fatal(err)
	}
	check := func(where string) {
		t.Helper()
		for i, want := range floats {
			v, err := tbl.GetValue(RowID(i), "f")
			if err != nil {
				t.Fatal(err)
			}
			if got := v.Float(); got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Errorf("%s: row %d reads %v, want %v", where, i, got, want)
			}
		}
		for _, tc := range []struct {
			pred Predicate
			want []RowID
		}{{between, []RowID{0, 2}}, {eqNaN, []RowID{1}}} {
			res, err := tbl.Select(nil, []Predicate{tc.pred}, "f")
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(res.IDs, tc.want) {
				t.Errorf("%s: %v selects %v, want %v", where, tc.pred, res.IDs, tc.want)
			}
		}
	}
	check("delta")
	if err := tbl.Merge(); err != nil {
		t.Fatal(err)
	}
	check("MRC")
	if err := tbl.ApplyLayout(Layout{InDRAM: []bool{true, false}}); err != nil {
		t.Fatal(err)
	}
	check("SSCG")
}
