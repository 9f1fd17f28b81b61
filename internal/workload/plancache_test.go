package workload

import (
	"sync"
	"testing"

	"tierdb/internal/schema"
	"tierdb/internal/table"
	"tierdb/internal/value"
)

func TestRecordDeduplicatesPlans(t *testing.T) {
	pc := NewPlanCache()
	pc.Record([]int{2, 0})
	pc.Record([]int{0, 2}) // same plan, different order
	pc.Record([]int{1})
	if n := len(pc.Plans()); n != 2 {
		t.Errorf("%d plans, want 2", n)
	}
	plans := pc.Plans()
	if plans[0].Count != 2 || len(plans[0].Columns) != 2 {
		t.Errorf("plans[0] = %+v", plans[0])
	}
	if plans[0].Columns[0] != 0 || plans[0].Columns[1] != 2 {
		t.Errorf("columns not normalized: %v", plans[0].Columns)
	}
}

func TestRecordN(t *testing.T) {
	pc := NewPlanCache()
	pc.RecordN([]int{1}, 50)
	pc.RecordN([]int{1}, 25)
	pc.RecordN([]int{1}, 0)  // ignored
	pc.RecordN([]int{1}, -3) // ignored
	plans := pc.Plans()
	if len(plans) != 1 || plans[0].Count != 75 {
		t.Errorf("plans = %+v", plans)
	}
}

func TestReset(t *testing.T) {
	pc := NewPlanCache()
	pc.Record([]int{0})
	pc.Reset()
	if len(pc.Plans()) != 0 {
		t.Error("Reset did not clear")
	}
}

func TestPlansStableOrder(t *testing.T) {
	pc := NewPlanCache()
	pc.RecordN([]int{0}, 10)
	pc.RecordN([]int{1}, 10)
	pc.RecordN([]int{2}, 99)
	plans := pc.Plans()
	if plans[0].Columns[0] != 2 {
		t.Error("highest-count plan not first")
	}
	if plans[1].Columns[0] != 0 || plans[2].Columns[0] != 1 {
		t.Error("tie break not by key")
	}
}

func TestConcurrentRecord(t *testing.T) {
	pc := NewPlanCache()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				pc.Record([]int{g % 4})
			}
		}(g)
	}
	wg.Wait()
	var total float64
	for _, p := range pc.Plans() {
		total += p.Count
	}
	if total != 8000 {
		t.Errorf("total executions = %g, want 8000", total)
	}
}

func loadedTable(t *testing.T) *table.Table {
	t.Helper()
	s := schema.MustNew([]schema.Field{
		{Name: "a", Type: value.Int64},
		{Name: "b", Type: value.Int64},
		{Name: "c", Type: value.Int64},
	})
	tbl, err := table.New("t", s, table.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]value.Value, 200)
	for i := range rows {
		rows[i] = []value.Value{
			value.NewInt(int64(i)),
			value.NewInt(int64(i % 10)),
			value.NewInt(int64(i % 2)),
		}
	}
	if err := tbl.BulkAppend(rows); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Merge(); err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestExtract(t *testing.T) {
	tbl := loadedTable(t)
	pc := NewPlanCache()
	pc.RecordN([]int{0, 1}, 100)
	pc.RecordN([]int{2}, 5)
	w, err := ExtractPlans(tbl, pc.Plans(), []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Columns) != 3 || len(w.Queries) != 2 {
		t.Fatalf("workload shape: %d cols, %d queries", len(w.Columns), len(w.Queries))
	}
	if !w.Columns[0].Pinned || w.Columns[1].Pinned {
		t.Error("pinning wrong")
	}
	if w.Columns[0].Selectivity != 1.0/200 {
		t.Errorf("selectivity a = %g", w.Columns[0].Selectivity)
	}
	if w.Columns[2].Selectivity != 0.5 {
		t.Errorf("selectivity c = %g", w.Columns[2].Selectivity)
	}
	for i, c := range w.Columns {
		if c.Size <= 0 {
			t.Errorf("column %d size %d", i, c.Size)
		}
	}
	g := w.AccessCounts()
	if g[0] != 100 || g[1] != 100 || g[2] != 5 {
		t.Errorf("access counts = %v", g)
	}
}

func TestExtractErrors(t *testing.T) {
	tbl := loadedTable(t)
	pc := NewPlanCache()
	pc.Record([]int{0})
	if _, err := ExtractPlans(tbl, pc.Plans(), []int{99}); err == nil {
		t.Error("bad pinned column accepted")
	}
	pc2 := NewPlanCache()
	pc2.Record([]int{7}) // out of table range
	if _, err := ExtractPlans(tbl, pc2.Plans(), nil); err == nil {
		t.Error("out-of-range plan column accepted")
	}
}

func TestExtractEmptyPlanCache(t *testing.T) {
	tbl := loadedTable(t)
	w, err := ExtractPlans(tbl, NewPlanCache().Plans(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Queries) != 0 {
		t.Error("expected no queries")
	}
}
