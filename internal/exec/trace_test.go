package exec

import (
	"context"
	"testing"

	"tierdb/internal/metrics"
	"tierdb/internal/value"
)

// findOp returns the first operator trace matching name and path.
func findOp(tr *metrics.Trace, name, path string) (metrics.OperatorTrace, bool) {
	for _, op := range tr.Operators {
		if op.Name == name && op.Path == path {
			return op, true
		}
	}
	return metrics.OperatorTrace{}, false
}

// TestRunTracedSerial runs a two-predicate query over a table with an
// evicted column and checks the trace records the chosen filter
// ordering, the scan-to-probe switchover, qualified rows, the modeled
// cost split and the executor counters.
func TestRunTracedSerial(t *testing.T) {
	// Column 1 ("a") is SSCG-placed; 0, 2, 3 stay DRAM-resident.
	tbl, clock := newTable(t, 1000, []bool{true, false, true, true})
	r := metrics.NewRegistry()
	// id eq leaves 1 of 1000 candidates: fraction 0.001 < threshold
	// 0.01 forces the switchover onto the tiered predicate.
	e := New(tbl, Options{Clock: clock, ProbeThreshold: 0.01, Registry: r})
	q := Query{Predicates: []Predicate{
		{Column: 1, Op: Eq, Value: value.NewInt(3)},
		{Column: 0, Op: Eq, Value: value.NewInt(123)},
	}}
	res, tr, err := e.RunTracedCtx(context.Background(), q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tr == nil {
		t.Fatal("no trace")
	}

	// Filter ordering: the DRAM-resident predicate must run first.
	if len(tr.Predicates) != 2 {
		t.Fatalf("predicates = %+v, want 2 entries", tr.Predicates)
	}
	if tr.Predicates[0].Column != 0 || tr.Predicates[0].Path != "mrc" {
		t.Errorf("first ordered predicate = %+v, want col 0 via mrc", tr.Predicates[0])
	}
	if tr.Predicates[1].Column != 1 || tr.Predicates[1].Path != "sscg" {
		t.Errorf("second ordered predicate = %+v, want col 1 via sscg", tr.Predicates[1])
	}
	if s := tr.Predicates[0].EstimatedSelectivity; s <= 0 || s > 0.01 {
		t.Errorf("id selectivity estimate = %g, want (0, 0.01]", s)
	}

	scan, ok := findOp(tr, "scan", "mrc")
	if !ok {
		t.Fatalf("no mrc scan operator in %+v", tr.Operators)
	}
	if scan.RowsIn != 1000 || scan.RowsOut != 1 {
		t.Errorf("mrc scan in=%d out=%d, want 1000/1", scan.RowsIn, scan.RowsOut)
	}
	probe, ok := findOp(tr, "probe", "sscg")
	if !ok {
		t.Fatalf("no sscg probe operator in %+v", tr.Operators)
	}
	if !probe.SwitchedToProbe {
		t.Error("sscg probe not marked as switchover")
	}
	if probe.CandidateFraction != 0.001 {
		t.Errorf("candidate fraction = %g, want 0.001", probe.CandidateFraction)
	}

	// id 123 has a = 123%10 = 3, so exactly one row qualifies.
	if len(res.IDs) != 1 || tr.RowsQualified != 1 {
		t.Errorf("rows qualified = %d (trace %d), want 1", len(res.IDs), tr.RowsQualified)
	}

	// Modeled cost: DRAM time from the MRC scan, device time and page
	// reads from the SSCG probe.
	if tr.DRAMNs <= 0 {
		t.Error("trace has no DRAM cost")
	}
	if tr.PageReads <= 0 || tr.DeviceNs <= 0 {
		t.Errorf("device cost: reads=%d ns=%d, want both > 0", tr.PageReads, tr.DeviceNs)
	}

	snap := r.Snapshot()
	for name, want := range map[string]int64{
		"exec.queries":              1,
		"exec.path.mrc_scans":       1,
		"exec.path.sscg_probes":     1,
		"exec.switch.scan_to_probe": 1,
		"exec.rows.qualified":       1,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("counter %s = %d, want %d", name, got, want)
		}
	}
	if snap.Counters["exec.rows.scanned"] < 1000 {
		t.Errorf("exec.rows.scanned = %d, want >= 1000", snap.Counters["exec.rows.scanned"])
	}
}

// TestRunTracedParallel checks the parallel path reports per-worker
// morsel counts that reconcile with the per-operator morsel counts and
// the exec.morsels counter, and that traced results match the serial
// executor's.
func TestRunTracedParallel(t *testing.T) {
	tbl, clock := newTable(t, 50_000, nil)
	r := metrics.NewRegistry()
	e := New(tbl, Options{Clock: clock, Parallelism: 4, morselRows: 2048, Registry: r})
	q := Query{
		Predicates: []Predicate{{Column: 1, Op: Eq, Value: value.NewInt(7)}},
		Project:    []int{0, 1},
	}
	res, tr, err := e.RunTracedCtx(context.Background(), q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Parallelism != 4 {
		t.Errorf("trace parallelism = %d", tr.Parallelism)
	}
	if len(tr.WorkerMorsels) == 0 || len(tr.WorkerMorsels) > 4 {
		t.Fatalf("worker morsels = %v, want 1..4 workers", tr.WorkerMorsels)
	}
	var workerSum int64
	for _, m := range tr.WorkerMorsels {
		workerSum += m
	}
	var opSum int64
	for _, op := range tr.Operators {
		opSum += int64(op.Morsels)
	}
	if workerSum == 0 || workerSum != opSum {
		t.Errorf("morsels: per-worker sum %d vs per-operator sum %d", workerSum, opSum)
	}
	if got := r.Snapshot().Counters["exec.morsels"]; got != workerSum {
		t.Errorf("exec.morsels = %d, want %d", got, workerSum)
	}

	mat, ok := findOp(tr, "materialize", "")
	if !ok {
		t.Fatalf("no materialize operator in %+v", tr.Operators)
	}
	if mat.RowsOut != len(res.IDs) {
		t.Errorf("materialize rows = %d, want %d", mat.RowsOut, len(res.IDs))
	}

	serial := New(tbl, Options{})
	want, err := serial.Run(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sameIDs(res.IDs, want.IDs) {
		t.Error("traced parallel result differs from serial result")
	}
	if tr.RowsQualified != len(want.IDs) {
		t.Errorf("rows qualified = %d, want %d", tr.RowsQualified, len(want.IDs))
	}
}

// TestRunUntracedUnmetered proves the disabled path: no registry, no
// trace, and execution still works with zero instruments installed.
func TestRunUntracedUnmetered(t *testing.T) {
	tbl, _ := newTable(t, 1000, nil)
	e := New(tbl, Options{})
	res, err := e.Run(Query{Predicates: []Predicate{{Column: 1, Op: Eq, Value: value.NewInt(3)}}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != 100 {
		t.Errorf("rows = %d, want 100", len(res.IDs))
	}
}
