package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tierdb"
	"tierdb/internal/explain"
)

// explainFixture is a fully hand-constructed ANALYZE plan so the golden
// test pins the renderer itself, with every field under test control
// rather than live server output.
func explainFixture() *explain.Plan {
	return &explain.Plan{
		Table:          "orders",
		Mode:           explain.ModeAnalyze,
		Device:         "nvme",
		Parallelism:    4,
		ProbeThreshold: 0.05,
		TraceID:        "00000000deadbeef",
		WallNs:         152_340,
		RowsQualified:  37,
		PageReads:      12,
		DRAMNs:         41_000,
		DeviceNs:       88_500,
		Nodes: []explain.Node{
			{
				Operator: "scan", Partition: "main", Path: "sscg",
				Column: 1, ColumnName: "region", Predicate: "region = 7",
				Tier: "secondary", ModeledCost: 0.002, ModeledFraction: 1,
				EstimatedSelectivity: 0.01, ObservedSelectivity: 0.012,
				MisestimateRatio: 1.2, RowsIn: 10000, RowsOut: 120,
				ObservedNs: 90_000, PageReads: 12,
			},
			{
				Operator: "probe", Partition: "main", Path: "mrc",
				Column: 2, ColumnName: "amount", Predicate: "amount between 100 and 200",
				Tier: "dram", ModeledCost: 0.00004, ModeledFraction: 0.01,
				EstimatedSelectivity: 0.25, ObservedSelectivity: 0.3083,
				MisestimateRatio: 1.23, RowsIn: 120, RowsOut: 37,
				ObservedNs: 30_000, Morsels: 4,
				SwitchedToProbe: true, CandidateFraction: 0.012,
			},
			{
				Operator: "visible", Partition: "main", Column: -1,
				RowsIn: 37, RowsOut: 37, ObservedNs: 2_000,
			},
			{
				Operator: "materialize", Column: -1, ColumnName: "amount",
				Tier: "dram", RowsIn: 37, RowsOut: 37, ObservedNs: 9_000,
			},
		},
		Placement: explain.Attribution{
			CurrentCost:     0.00204,
			RecommendedCost: 0.0000604,
			Regret:          0.0019796,
			Columns: []explain.ColumnAttribution{
				{
					Column: 1, Name: "region", SizeBytes: 2 << 20,
					Selectivity: 0.01, SelectivitySource: "observed", ObservedSamples: 9,
					TierNow: "secondary", TierRecommended: "dram",
					ScanFraction: 1, ModeledCost: 0.002, RecommendedCost: 0.00002,
					Regret: 0.00198,
				},
				{
					Column: 2, Name: "amount", SizeBytes: 4 << 20,
					Selectivity: 0.25, SelectivitySource: "estimated",
					TierNow: "dram", TierRecommended: "dram",
					ScanFraction: 0.01, ModeledCost: 0.00004, RecommendedCost: 0.0000404,
					Regret: -0.0000004,
				},
			},
		},
	}
}

// TestExplainGolden renders the fixture plan and compares it byte for
// byte against the golden file; run with -update to regenerate after an
// intentional format change.
func TestExplainGolden(t *testing.T) {
	out := explain.RenderText(explainFixture())
	golden := filepath.Join("testdata", "explain_golden.txt")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if out != string(want) {
		t.Errorf("explain rendering drifted from golden file (re-run with -update if intentional)\n--- got ---\n%s\n--- want ---\n%s", out, want)
	}
}

// TestFetchExplain runs the request behind `tierctl explain` against a
// live instance's /explain: the text body is the renderer's output for
// the plan the library builds, and -json yields that plan.
func TestFetchExplain(t *testing.T) {
	db, err := tierdb.Open(tierdb.Config{ObsAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable("t", []tierdb.Field{
		{Name: "id", Type: tierdb.Int64Type},
		{Name: "v", Type: tierdb.Int64Type},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]tierdb.Value, 500)
	for i := range rows {
		rows[i] = []tierdb.Value{tierdb.Int(int64(i)), tierdb.Int(int64(i % 5))}
	}
	if err := tbl.BulkLoad(rows); err != nil {
		t.Fatal(err)
	}
	v, err := tbl.Eq("v", tierdb.Int(2))
	if err != nil {
		t.Fatal(err)
	}
	span, err := tbl.Between("id", tierdb.Int(10), tierdb.Int(90))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := tbl.Explain([]tierdb.Predicate{v, span}, "id")
	if err != nil {
		t.Fatal(err)
	}
	addr := strings.TrimPrefix(db.ObsURL(), "http://")
	text, err := obsGet(addr, explainPath("t", "v=2,id=10..90", "id", false, false))
	if err != nil {
		t.Fatal(err)
	}
	if want := tierdb.RenderExplain(plan); string(text) != want {
		t.Errorf("explain text over HTTP:\n%s\nwant:\n%s", text, want)
	}
	body, err := obsGet(addr, explainPath("t", "v=2", "", true, true))
	if err != nil {
		t.Fatal(err)
	}
	var analyzed tierdb.ExplainPlan
	if err := json.Unmarshal(body, &analyzed); err != nil {
		t.Fatal(err)
	}
	if analyzed.Mode != explain.ModeAnalyze || analyzed.RowsQualified != 100 {
		t.Errorf("explain -analyze -json: mode %s, %d rows; want analyze, 100", analyzed.Mode, analyzed.RowsQualified)
	}
	if _, err := obsGet(addr, explainPath("nope", "", "", false, false)); err == nil || !strings.Contains(err.Error(), "nope") {
		t.Errorf("explain of a missing table: err = %v, want the server's message", err)
	}
}

// TestExplainGoldenPlanOnly pins the EXPLAIN-only header path: no wall
// summary line and no observed columns on the nodes.
func TestExplainGoldenPlanOnly(t *testing.T) {
	p := explainFixture()
	p.Mode = explain.ModeExplain
	out := explain.RenderText(p)
	golden := filepath.Join("testdata", "explain_plan_golden.txt")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if out != string(want) {
		t.Errorf("explain rendering drifted from golden file (re-run with -update if intentional)\n--- got ---\n%s\n--- want ---\n%s", out, want)
	}
}
