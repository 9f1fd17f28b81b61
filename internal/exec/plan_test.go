package exec

import (
	"context"
	"strings"
	"testing"

	"tierdb/internal/column"
	"tierdb/internal/dict"
	"tierdb/internal/value"
)

// TestOperatorFor tabulates the executor's one access decision: which
// kernel a step runs given whether it is first, what its column offers
// and the candidate fraction against the probe threshold — including a
// fraction exactly at the threshold, which probes.
func TestOperatorFor(t *testing.T) {
	const threshold = 0.01
	mrc, err := column.Build("c", value.Int64, []value.Value{value.NewInt(1)})
	if err != nil {
		t.Fatal(err)
	}
	idx := dict.NewIndex(mrc.Dictionary(), []uint32{0})
	dram := step{pred: Predicate{Column: 3}, path: pathMRC, mrc: mrc}
	tiered := step{pred: Predicate{Column: 3}, path: pathSSCG, field: 0}
	indexedDRAM := step{pred: Predicate{Column: 3}, path: pathIndex, index: idx, mrc: mrc}
	indexedTiered := step{pred: Predicate{Column: 3}, path: pathIndex, index: idx, field: 0}
	for _, tc := range []struct {
		name     string
		s        step
		first    bool
		fraction float64
		want     kernel
		opName   string
		path     string
		switched bool
		reported float64 // CandidateFraction in the record
	}{
		{"first, indexed DRAM column", indexedDRAM, true, 0, kernelIndex, "index", "index", false, 0},
		{"first, indexed tiered column", indexedTiered, true, 0, kernelIndex, "index", "index", false, 0},
		{"first, DRAM column", dram, true, 0, kernelScanMRC, "scan", "mrc", false, 0},
		{"first, tiered column", tiered, true, 0, kernelScanSSCG, "scan", "sscg", false, 0},
		{"later, DRAM column, many candidates", dram, false, 0.9, kernelProbeMRC, "probe", "mrc", false, 0},
		{"later, DRAM column, few candidates", dram, false, 0.001, kernelProbeMRC, "probe", "mrc", false, 0},
		{"later, indexed DRAM column", indexedDRAM, false, 0.5, kernelProbeMRC, "probe", "mrc", false, 0},
		{"later, tiered column above the threshold", tiered, false, 0.011, kernelScanSSCG, "scan", "sscg", false, 0.011},
		{"later, tiered column at the threshold", tiered, false, threshold, kernelProbeSSCG, "probe", "sscg", true, threshold},
		{"later, tiered column below the threshold", tiered, false, 0.001, kernelProbeSSCG, "probe", "sscg", true, 0.001},
		{"later, tiered column, no candidates", tiered, false, 0, kernelProbeSSCG, "probe", "sscg", true, 0},
		{"later, indexed tiered column above the threshold", indexedTiered, false, 0.5, kernelScanSSCG, "scan", "sscg", false, 0.5},
		{"later, indexed tiered column below the threshold", indexedTiered, false, 0.001, kernelProbeSSCG, "probe", "sscg", true, 0.001},
	} {
		k, op := tc.s.operatorFor(tc.first, tc.fraction, threshold)
		if k != tc.want {
			t.Errorf("%s: kernel %d, want %d", tc.name, k, tc.want)
		}
		if op.Name != tc.opName || op.Path != tc.path || op.SwitchedToProbe != tc.switched || op.CandidateFraction != tc.reported {
			t.Errorf("%s: record %s[%s] switched=%v fraction=%g, want %s[%s] switched=%v fraction=%g",
				tc.name, op.Name, op.Path, op.SwitchedToProbe, op.CandidateFraction, tc.opName, tc.path, tc.switched, tc.reported)
		}
		if op.Partition != "main" || op.Column != 3 || op.RowsIn != 0 || op.RowsOut != 0 {
			t.Errorf("%s: record %+v, want a bare main-partition record on column 3", tc.name, op)
		}
	}
}

// TestPlanValidatesEveryPath checks that plan rejects a wrongly typed
// operand whatever path the column would have taken, and that a
// rejected query leaves the executor's counters and clock alone.
func TestPlanValidatesEveryPath(t *testing.T) {
	tbl, clock := newTable(t, 1000, []bool{true, true, false, true})
	if err := tbl.CreateIndex(0); err != nil {
		t.Fatal(err)
	}
	e := New(tbl, Options{Clock: clock})
	str := value.NewString("x")
	for _, tc := range []struct {
		name string
		p    Predicate
		want string
	}{
		{"index path", Predicate{Column: 0, Op: Eq, Value: str}, "has type string, want int64"},
		{"MRC path", Predicate{Column: 1, Op: Eq, Value: str}, "has type string, want int64"},
		{"SSCG path", Predicate{Column: 2, Op: Eq, Value: str}, "has type string, want int64"},
		{"range low bound", Predicate{Column: 1, Op: Between, Value: str, Hi: value.NewInt(3)}, "predicate on column 1 has type string"},
		{"range high bound", Predicate{Column: 1, Op: Between, Value: value.NewInt(3), Hi: str}, "range bound on column 1 has type string"},
		{"unknown operator", Predicate{Column: 1, Op: Op(7), Value: value.NewInt(3)}, "unknown operator 7"},
		{"column out of range", Predicate{Column: 9, Op: Eq, Value: value.NewInt(3)}, "predicate column 9 out of range"},
	} {
		clock.Reset()
		q := Query{Predicates: []Predicate{{Column: 3, Op: Eq, Value: value.NewInt(1)}, tc.p}}
		if _, _, err := e.RunTracedCtx(context.Background(), q, nil); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Run error = %v, want one containing %q", tc.name, err, tc.want)
		}
		if _, err := e.Explain(q); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Explain error = %v, want one containing %q", tc.name, err, tc.want)
		}
		if clock.Elapsed() != 0 {
			t.Errorf("%s: rejected query charged %v", tc.name, clock.Elapsed())
		}
	}
	if _, err := e.Run(Query{Project: []int{4}}, nil); err == nil || !strings.Contains(err.Error(), "projected column 4 out of range") {
		t.Errorf("projection out of range: %v", err)
	}
}
