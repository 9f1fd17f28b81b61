package explain

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"tierdb/internal/core"
	"tierdb/internal/metrics"
)

func testInput() Input {
	return Input{
		Table:          "orders",
		Mode:           ModeAnalyze,
		Device:         "CSSD",
		Parallelism:    1,
		ProbeThreshold: 1e-4,
		Costs:          core.DefaultCostParams(),
		Columns: []ColumnInput{
			{Name: "id", SizeBytes: 8000, Selectivity: 1.0 / 1000, SelectivitySource: "estimated", InDRAM: true, Recommended: true},
			{Name: "region", SizeBytes: 8000, Selectivity: 0.04, SelectivitySource: "estimated", InDRAM: false, Recommended: true},
			{Name: "amount", SizeBytes: 8000, Selectivity: 0.5, SelectivitySource: "observed", ObservedSamples: 9, InDRAM: true, Recommended: false},
		},
		QueryColumns:   []int{1, 2},
		ProjectColumns: []int{0},
		Predicates:     []string{"amount between 100 and 200", "region = 7"},
		Trace: &metrics.Trace{
			Table:          "orders",
			Parallelism:    1,
			ProbeThreshold: 1e-4,
			Predicates: []metrics.PredicateTrace{
				{Query: 1, Column: 1, Op: "eq", Path: "sscg", EstimatedSelectivity: 0.04},
				{Query: 0, Column: 2, Op: "between", Path: "mrc", EstimatedSelectivity: 0.5},
			},
			Operators: []metrics.OperatorTrace{
				{Name: "scan", Partition: "main", Path: "sscg", Column: 1, RowsIn: 1000, RowsOut: 40, StartNs: 100, EndNs: 300, PageReads: 4},
				{Name: "probe", Partition: "main", Path: "mrc", Column: 2, RowsIn: 40, RowsOut: 20, StartNs: 300, EndNs: 350},
				{Name: "visible", Partition: "main", Column: -1, RowsIn: 20, RowsOut: 20, StartNs: 350, EndNs: 360},
				{Name: "materialize", Partition: "main", Column: -1, RowsIn: 20, RowsOut: 20, StartNs: 360, EndNs: 400},
			},
			RowsQualified: 20,
			Device:        "CSSD",
			DRAMNs:        150,
			DeviceNs:      800,
			PageReads:     4,
		},
		WallNs:  1000,
		TraceID: "00000000deadbeef",
	}
}

// The plan's placement section must reproduce the solver's own cost for
// the live placement exactly: same model, same decomposition.
func TestBuildMatchesSolverCost(t *testing.T) {
	in := testInput()
	p, err := Build(in)
	if err != nil {
		t.Fatal(err)
	}
	w := &core.Workload{
		Columns: []core.Column{
			{Name: "id", Size: 8000, Selectivity: 1.0 / 1000},
			{Name: "region", Size: 8000, Selectivity: 0.04},
			{Name: "amount", Size: 8000, Selectivity: 0.5},
		},
		Queries: []core.Query{{Columns: []int{1, 2}, Frequency: 1}},
	}
	want := core.ScanCost(w, in.Costs, []bool{true, false, true})
	if p.Placement.CurrentCost != want {
		t.Errorf("CurrentCost = %g, solver says %g", p.Placement.CurrentCost, want)
	}
	wantRec := core.ScanCost(w, in.Costs, []bool{true, true, false})
	if p.Placement.RecommendedCost != wantRec {
		t.Errorf("RecommendedCost = %g, solver says %g", p.Placement.RecommendedCost, wantRec)
	}
	if p.Placement.Regret != want-wantRec {
		t.Errorf("Regret = %g, want %g", p.Placement.Regret, want-wantRec)
	}

	// Node modeled costs sum to the placement total: each predicate
	// column's term is claimed by exactly one main-partition operator.
	var nodeSum float64
	for _, n := range p.Nodes {
		nodeSum += n.ModeledCost
	}
	if nodeSum != p.Placement.CurrentCost {
		t.Errorf("node modeled costs sum to %g, placement total %g", nodeSum, p.Placement.CurrentCost)
	}
	// Per-column attributions also sum to the totals.
	var colCur, colRec float64
	for _, c := range p.Placement.Columns {
		colCur += c.ModeledCost
		colRec += c.RecommendedCost
	}
	if colCur != p.Placement.CurrentCost || colRec != p.Placement.RecommendedCost {
		t.Errorf("column attributions sum to %g/%g, totals %g/%g",
			colCur, colRec, p.Placement.CurrentCost, p.Placement.RecommendedCost)
	}
}

func TestBuildAnalyzeNodes(t *testing.T) {
	p, err := Build(testInput())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Nodes) != 4 {
		t.Fatalf("got %d nodes, want 4: %+v", len(p.Nodes), p.Nodes)
	}
	scan := p.Nodes[0]
	if scan.Operator != "scan" || scan.Tier != "secondary" || scan.PageReads != 4 {
		t.Errorf("scan node = %+v, want sscg scan from secondary with 4 page reads", scan)
	}
	if scan.ObservedSelectivity != 0.04 || scan.MisestimateRatio != 1 {
		t.Errorf("scan observed sel %g ratio %g, want 0.04 and 1", scan.ObservedSelectivity, scan.MisestimateRatio)
	}
	if scan.ObservedNs != 200 || scan.StartNs != 100 || scan.EndNs != 300 {
		t.Errorf("scan interval = [%d,%d] (%dns), want [100,300]", scan.StartNs, scan.EndNs, scan.ObservedNs)
	}
	if scan.Predicate != "region = 7" {
		t.Errorf("scan predicate = %q", scan.Predicate)
	}
	probe := p.Nodes[1]
	if probe.Operator != "probe" || probe.Tier != "dram" || probe.ObservedSelectivity != 0.5 {
		t.Errorf("probe node = %+v", probe)
	}
	if probe.Predicate != "amount between 100 and 200" {
		t.Errorf("probe predicate = %q", probe.Predicate)
	}
	if p.Nodes[2].Tier != "" || p.Nodes[2].ModeledCost != 0 {
		t.Errorf("visible node should carry no tier or model term: %+v", p.Nodes[2])
	}
	if p.RowsQualified != 20 || p.PageReads != 4 || p.WallNs != 1000 || p.TraceID != "00000000deadbeef" {
		t.Errorf("plan summary = %+v", p)
	}
}

// planOnlyInput is testInput as Executor.Explain would have filled it:
// the plan's predicted operators, nothing observed.
func planOnlyInput() Input {
	in := testInput()
	in.Mode = ModeExplain
	in.WallNs = 0
	in.Trace.RowsQualified, in.Trace.DRAMNs, in.Trace.DeviceNs, in.Trace.PageReads = 0, 0, 0, 0
	in.Trace.Operators = []metrics.OperatorTrace{
		{Name: "scan", Partition: "main", Path: "sscg", Column: 1},
		{Name: "probe", Partition: "main", Path: "mrc", Column: 2},
		{Name: "materialize", Partition: "main", Column: -1},
	}
	return in
}

// Plan-only mode mirrors the operators the executor's plan predicts
// (Build itself predicts nothing) without any observed field.
func TestBuildExplainPredictsOperators(t *testing.T) {
	in := planOnlyInput()
	p, err := Build(in)
	if err != nil {
		t.Fatal(err)
	}
	// Two predicates plus the projection's materialize.
	if len(p.Nodes) != 3 {
		t.Fatalf("got %d nodes, want 3: %+v", len(p.Nodes), p.Nodes)
	}
	if p.Nodes[0].Operator != "scan" || p.Nodes[0].Path != "sscg" {
		t.Errorf("first predicted node = %+v, want sscg scan", p.Nodes[0])
	}
	if p.Nodes[1].Operator != "probe" || p.Nodes[1].Path != "mrc" {
		t.Errorf("second predicted node = %+v, want mrc probe", p.Nodes[1])
	}
	if p.Nodes[2].Operator != "materialize" {
		t.Errorf("last predicted node = %+v, want materialize", p.Nodes[2])
	}
	if p.Nodes[0].RowsIn != 0 || p.Nodes[0].ObservedNs != 0 {
		t.Errorf("plan-only node carries observed fields: %+v", p.Nodes[0])
	}
	if p.Nodes[0].Tier != "secondary" || p.Nodes[0].EstimatedSelectivity != 0.04 || p.Nodes[0].ModeledCost == 0 {
		t.Errorf("plan-only node lacks tier, estimate or modeled term: %+v", p.Nodes[0])
	}
	// The modeled placement section is identical to ANALYZE mode.
	if p.Placement.CurrentCost == 0 || len(p.Placement.Columns) != 2 {
		t.Errorf("plan-only placement section missing: %+v", p.Placement)
	}
}

func TestPlanJSONRoundtrip(t *testing.T) {
	p, err := Build(testInput())
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var back Plan
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*p, back) {
		t.Errorf("JSON roundtrip changed the plan:\n  before %+v\n  after  %+v", *p, back)
	}
}

func TestParseQuerySpec(t *testing.T) {
	specs, err := ParseQuerySpec("region=7, amount=100..200")
	if err != nil {
		t.Fatal(err)
	}
	want := []PredicateSpec{
		{Column: "region", Op: "eq", Value: "7"},
		{Column: "amount", Op: "between", Value: "100", Hi: "200"},
	}
	if !reflect.DeepEqual(specs, want) {
		t.Errorf("ParseQuerySpec = %+v, want %+v", specs, want)
	}
	if got, err := ParseQuerySpec(""); err != nil || got != nil {
		t.Errorf("empty spec = %+v, %v", got, err)
	}
	for _, bad := range []string{"region", "region=", "=7", "amount=1..", "amount=..2"} {
		if _, err := ParseQuerySpec(bad); err == nil {
			t.Errorf("ParseQuerySpec(%q) accepted", bad)
		}
	}
}

func TestRenderText(t *testing.T) {
	p, err := Build(testInput())
	if err != nil {
		t.Fatal(err)
	}
	out := RenderText(p)
	for _, want := range []string{
		"EXPLAIN ANALYZE · table orders",
		"main/scan[sscg] region = 7",
		"tier secondary",
		"placement attribution",
		"trace 00000000deadbeef",
		"regret",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered plan missing %q:\n%s", want, out)
		}
	}
	// Plan-only rendering omits the observed summary line.
	po, err := Build(planOnlyInput())
	if err != nil {
		t.Fatal(err)
	}
	out = RenderText(po)
	if strings.Contains(out, "obs sel") || strings.Contains(out, "wall ") {
		t.Errorf("plan-only rendering leaked observed fields:\n%s", out)
	}
}

func TestBuildRejectsBadInput(t *testing.T) {
	in := testInput()
	in.Trace = nil
	if _, err := Build(in); err == nil {
		t.Error("Build accepted nil trace")
	}
	in = testInput()
	in.QueryColumns = []int{99}
	if _, err := Build(in); err == nil {
		t.Error("Build accepted out-of-range query column")
	}
}
