package tierdb

import (
	"context"
	"strings"
	"testing"
)

// TestDBStats drives a small workload through the public API and checks
// the engine-wide snapshot reflects it across layers: executor,
// transactions, delta, AMM cache and the device model.
func TestDBStats(t *testing.T) {
	db, tbl := openLoaded(t, 2000)

	// Evict two columns so queries touch the device through the cache.
	layout := []bool{true, true, false, false}
	if err := tbl.Inner().ApplyLayout(layout); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert([]Value{Int(9001), Int(1), Float(1), String("x")}); err != nil {
		t.Fatal(err)
	}
	region, err := tbl.Eq("region", Int(3))
	if err != nil {
		t.Fatal(err)
	}
	amount, err := tbl.Between("amount", Float(0), Float(100))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Select(nil, []Predicate{region, amount}, "id"); err != nil {
		t.Fatal(err)
	}

	snap := db.Stats()
	for _, name := range []string{
		"exec.queries", "exec.rows.qualified", "exec.rows.scanned",
		"mvcc.tx.begin", "mvcc.tx.commit", "delta.inserts", "table.merges",
	} {
		if snap.Counters[name] <= 0 {
			t.Errorf("counter %s = %d, want > 0", name, snap.Counters[name])
		}
	}
	if snap.Counters["amm.hits"]+snap.Counters["amm.misses"] <= 0 {
		t.Error("cache saw no traffic")
	}
	if snap.Counters["device.3d_xpoint.page_reads"] <= 0 {
		t.Error("device model saw no page reads")
	}
	if !strings.Contains(snap.Render(), "exec.queries") {
		t.Error("render misses exec.queries")
	}
}

// TestSelectExplainedSummary checks the public ANALYZE path end to end:
// the plan summarizes the executed query the way its trace recorded it.
func TestSelectExplainedSummary(t *testing.T) {
	_, tbl := openLoaded(t, 2000)
	region, err := tbl.Eq("region", Int(5))
	if err != nil {
		t.Fatal(err)
	}
	res, plan, err := tbl.SelectExplainedCtx(context.Background(), nil, []Predicate{region}, "id", "amount")
	if err != nil {
		t.Fatal(err)
	}
	if plan == nil || plan.Table != "orders" || plan.Device != "3D XPoint" {
		t.Fatalf("plan = %+v", plan)
	}
	if plan.RowsQualified != len(res.IDs) || len(res.IDs) != 250 {
		t.Errorf("rows = %d (plan %d), want 250", len(res.IDs), plan.RowsQualified)
	}
	if len(plan.Nodes) == 0 || plan.Nodes[0].Predicate != "region = 5" {
		t.Errorf("plan nodes = %+v, want the region predicate first", plan.Nodes)
	}
	if plan.DRAMNs <= 0 {
		t.Error("plan has no modeled DRAM cost")
	}
	// Explained queries feed the plan cache like Select.
	if tbl.PlanCache().Len() == 0 {
		t.Error("explained query not recorded in plan cache")
	}
}
