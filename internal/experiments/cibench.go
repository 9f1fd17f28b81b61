package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"tierdb/internal/amm"
	"tierdb/internal/core"
	"tierdb/internal/device"
	"tierdb/internal/exec"
	"tierdb/internal/metrics"
	"tierdb/internal/mvcc"
	"tierdb/internal/persist"
	"tierdb/internal/schema"
	"tierdb/internal/storage"
	"tierdb/internal/table"
	"tierdb/internal/value"
	"tierdb/internal/wal"
)

// BenchStats is the machine-readable artifact of the CI bench gate:
// a small set of gate metrics (compared against the checked-in
// baseline by CompareBenchStats) plus the full engine metrics snapshot
// for post-hoc inspection. Every gate metric derives from the virtual
// clock and seeded workload, so it is bit-identical across machines —
// what CI compares is the cost model, not host noise.
type BenchStats struct {
	Experiment string             `json:"experiment"`
	Seed       int64              `json:"seed"`
	Metrics    map[string]float64 `json:"metrics"`
	Snapshot   metrics.Snapshot   `json:"snapshot"`
}

// CIBench runs the fixed CI workload: a 200k-row table with two columns
// evicted to a modeled CSSD behind an AMM cache, a mixed query set
// (DRAM scans, tiered scans, scan-to-probe switchovers, repeated hot
// queries), an OLTP burst with aborts, and a merge. Execution is
// serial so every gate metric is deterministic for a given seed.
func CIBench(seed int64) (BenchStats, *Report, error) {
	const rows = 200_000
	stats := BenchStats{Experiment: "ci", Seed: seed, Metrics: map[string]float64{}}

	s := schema.MustNew([]schema.Field{
		{Name: "id", Type: value.Int64},
		{Name: "region", Type: value.Int64},
		{Name: "amount", Type: value.Int64},
		{Name: "payload", Type: value.Int64},
	})
	registry := metrics.NewRegistry()
	clock := &storage.Clock{}
	timed := storage.NewTimedStore(storage.NewMemStore(), device.CSSD, clock)
	timed.Observe(registry)
	// Cache smaller than the SSCG working set, so the gate also covers
	// eviction behavior and a non-trivial hit rate.
	cache, err := amm.New(256, timed)
	if err != nil {
		return stats, nil, err
	}
	cache.Observe(registry)
	mgr := mvcc.NewManager()
	mgr.Observe(registry)
	tbl, err := table.New("cibench", s, table.Options{
		Store: timed, Cache: cache, Manager: mgr, Registry: registry,
	})
	if err != nil {
		return stats, nil, err
	}
	data := make([][]value.Value, rows)
	for i := range data {
		data[i] = []value.Value{
			value.NewInt(int64(i)),
			value.NewInt(int64((i + int(seed)) % 100)),
			value.NewInt(int64(i % 10_000)),
			value.NewInt(int64(i % 7)),
		}
	}
	if err := tbl.BulkAppend(data); err != nil {
		return stats, nil, err
	}
	// id and region stay DRAM-resident; amount and payload tier out.
	if err := tbl.ApplyLayout([]bool{true, true, false, false}); err != nil {
		return stats, nil, err
	}

	clock.Reset()
	// Observability capture runs exactly as in production (trace ring +
	// observed-selectivity EWMAs) so the gate covers its overhead; it
	// never charges the virtual clock, keeping every modeled gate metric
	// bit-identical. The slow-query ring stays off: wall time is host
	// noise.
	recent := metrics.NewTraceRing(64)
	e := exec.New(tbl, exec.Options{Clock: clock, Registry: registry, TraceRing: recent})
	queries := []exec.Query{
		// DRAM scan over the region MRC.
		{Predicates: []exec.Predicate{
			{Column: 1, Op: exec.Between, Value: value.NewInt(10), Hi: value.NewInt(40)},
		}},
		// Tiered scan: a wide range over the evicted amount column.
		{Predicates: []exec.Predicate{
			{Column: 2, Op: exec.Between, Value: value.NewInt(0), Hi: value.NewInt(5_000)},
		}},
		// Scan-to-probe switchover: the id equality leaves one candidate
		// (fraction 1/200k < 0.01 %), so the tiered predicate probes. The
		// candidate is the last row, whose page the scan before it has
		// just faulted in: the cache hit the gate reports.
		{Predicates: []exec.Predicate{
			{Column: 0, Op: exec.Eq, Value: value.NewInt(int64(rows - 1))},
			{Column: 2, Op: exec.Between, Value: value.NewInt(0), Hi: value.NewInt(10_000)},
		}},
	}
	// Two passes. The scan floods the 256-frame cache, so it never hits
	// on a second pass; the probe after it does.
	for pass := 0; pass < 2; pass++ {
		for _, q := range queries {
			if _, err := e.Run(q, nil); err != nil {
				return stats, nil, err
			}
		}
	}

	// OLTP burst: 50 single-row transactions, every 10th aborted.
	for i := 0; i < 50; i++ {
		tx := mgr.Begin()
		row := []value.Value{
			value.NewInt(int64(rows + i)),
			value.NewInt(int64(i % 100)),
			value.NewInt(int64(i)),
			value.NewInt(int64(i % 7)),
		}
		if err := tbl.Insert(tx, row); err != nil {
			return stats, nil, err
		}
		if i%10 == 9 {
			if err := mgr.Abort(tx); err != nil {
				return stats, nil, err
			}
		} else if _, err := mgr.Commit(tx); err != nil {
			return stats, nil, err
		}
	}
	// Online merge: the rebuild re-writes the SSCG through the timed
	// store, so the clock delta is the modeled rebuild cost.
	mergeStart := clock.Elapsed()
	if err := tbl.Merge(); err != nil {
		return stats, nil, err
	}
	mergeNS := clock.Elapsed() - mergeStart

	// Adaptive re-solve: the warm Theorem-2 path the placement daemon
	// runs each cycle (current layout as the reallocation baseline,
	// nonzero beta), on a fixed model of this table and query mix. The
	// gate metric is the modeled scan time of the chosen placement in
	// nanoseconds — bit-identical for a given seed, it regresses if the
	// explicit solver or the reallocation costing drifts.
	adaptiveNS, err := ciAdaptiveSolve(seed)
	if err != nil {
		return stats, nil, err
	}

	// Durability phase: write a fixed 2000-commit write-ahead log, crash
	// nothing, and replay it into a fresh table. The gate metric is the
	// modeled single-threaded DRAM sequential read of the replayed bytes
	// — a deterministic proxy for restart cost that regresses if the
	// record framing bloats or replay silently drops records.
	replayNS, err := ciRecovery(seed, s, registry)
	if err != nil {
		return stats, nil, err
	}

	snap := registry.Snapshot()
	ammStats := cache.Stats()
	stats.Snapshot = snap
	stats.Metrics = map[string]float64{
		"modeled_total_ns":   float64(clock.Elapsed()),
		"exec_dram_ns":       float64(snap.Counters["exec.dram_ns"]),
		"device_read_ns":     float64(snap.Counters["device.cssd.modeled_read_ns"]),
		"page_reads":         float64(clock.Reads()),
		"rows_scanned":       float64(snap.Counters["exec.rows.scanned"]),
		"amm_hit_rate":       ammStats.HitRate(),
		"switchovers":        float64(snap.Counters["exec.switch.scan_to_probe"]),
		"merge_rebuild_ns":   float64(mergeNS),
		"recovery_replay_ns": float64(replayNS),
		"adaptive_solve_ns":  adaptiveNS,
		// Deterministic count of observability capture work (query traces
		// ringed + selectivity samples recorded). Not direction-gated, but
		// its disappearance from a run fails the gate: capture must not be
		// silently lost.
		"obs_capture": float64(snap.Counters["obs.traces_captured"] + snap.Counters["selectivity.samples"]),
	}

	r := &Report{
		ID:     "ci",
		Title:  "CI bench gate: fixed workload, modeled costs and cache effectiveness",
		Header: []string{"Metric", "Value"},
	}
	for _, name := range sortedMetricNames(stats.Metrics) {
		v := stats.Metrics[name]
		cell := fmt.Sprintf("%.4g", v)
		if strings.HasSuffix(name, "_ns") {
			cell = time.Duration(int64(v)).Round(time.Microsecond).String()
		}
		r.AddRow(name, cell)
	}
	r.AddNote("all gate metrics derive from the virtual clock and a seeded workload: deterministic across machines")
	return stats, r, nil
}

// ciAdaptiveSolve models one adaptive-daemon cycle: a warm explicit
// re-solve (ExplicitForBudget with the CI layout as the incumbent and a
// nonzero reallocation price) over a fixed model of the CI table and
// query mix, under a budget that forces a real eviction choice. It
// returns the modeled scan time of the chosen placement in nanoseconds.
func ciAdaptiveSolve(seed int64) (float64, error) {
	const rowBytes = 8 * 200_000 // one Int64 column of the CI table
	w := &core.Workload{
		Columns: []core.Column{
			{Name: "id", Size: rowBytes, Selectivity: 1.0 / 200_000},
			{Name: "region", Size: rowBytes, Selectivity: 1.0 / 100},
			{Name: "amount", Size: rowBytes, Selectivity: 1.0 / 10_000},
			{Name: "payload", Size: rowBytes, Selectivity: 1.0 / 7},
		},
		Queries: []core.Query{
			{Columns: []int{1}, Frequency: float64(8 + seed%4)},
			{Columns: []int{2}, Frequency: 6},
			{Columns: []int{0, 2}, Frequency: 4},
			{Columns: []int{3, 1}, Frequency: 2},
		},
	}
	current := []bool{true, true, false, false}
	alloc, err := core.ExplicitForBudget(w, core.DefaultCostParams(), 2*rowBytes, current, 2e-10)
	if err != nil {
		return 0, err
	}
	return core.ScanCost(w, core.DefaultCostParams(), alloc.InDRAM) * 1e9, nil
}

// ciRecovery writes a seeded WAL through the real log layer, recovers it
// with persist.Recover, the path Open takes, and returns the modeled
// replay time (DRAM sequential read over the replayed bytes). Record
// counts are verified: replay dropping commits fails the run outright
// rather than shifting a metric.
func ciRecovery(seed int64, s *schema.Schema, registry *metrics.Registry) (time.Duration, error) {
	const commits = 2000
	fs := wal.NewMemFS()
	log, err := wal.Open(wal.Options{FS: fs, Dir: "wal", Policy: wal.SyncOff, Registry: registry})
	if err != nil {
		return 0, err
	}
	if err := log.AppendCreateTable("recovered", s.Fields()); err != nil {
		return 0, err
	}
	var ts mvcc.Timestamp = 1
	for i := 0; i < commits; i++ {
		ops := []mvcc.RedoOp{{Table: "recovered", Row: []value.Value{
			value.NewInt(int64(i)),
			value.NewInt(int64((i + int(seed)) % 100)),
			value.NewInt(int64(i % 10_000)),
			value.NewInt(int64(i % 7)),
		}}}
		if _, err := log.AppendCommit(context.Background(), func() mvcc.Timestamp { ts++; return ts }, ops); err != nil {
			return 0, err
		}
	}
	if err := log.Close(); err != nil {
		return 0, err
	}
	tables, rstats, err := persist.Recover(fs, "wal", table.Options{Manager: mvcc.NewManager()})
	if err != nil {
		return 0, err
	}
	if got := tables["recovered"]; got == nil || got.VisibleCount() != commits {
		return 0, fmt.Errorf("ci recovery did not replay all %d commits", commits)
	}
	return device.DRAM.SequentialReadTime(rstats.Bytes, 1), nil
}

// sortedMetricNames returns the metric names in stable order.
func sortedMetricNames(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for name := range m {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// higherIsWorse classifies a gate metric's regression direction: cost
// metrics (modeled nanoseconds, page reads, rows scanned) regress
// upward; rates and speedups (hit_rate, *_x) regress downward.
// Metrics with no rule (counts like switchovers) are informational and
// return ok=false.
func higherIsWorse(name string) (worse bool, ok bool) {
	switch {
	case strings.HasSuffix(name, "_ns"), name == "page_reads", name == "rows_scanned":
		return true, true
	case strings.HasSuffix(name, "hit_rate"), strings.HasSuffix(name, "_x"):
		return false, true
	}
	return false, false
}

// CompareBenchStats checks current against a baseline and returns one
// message per regression beyond the tolerance (e.g. 0.10 for 10 %).
// A cost metric regresses when it grows past baseline*(1+tol); a rate
// metric when it falls below baseline*(1-tol). Gate metrics present in
// the baseline but missing from the current run always fail: silently
// dropping a metric must not pass the gate.
func CompareBenchStats(current, baseline BenchStats, tolerance float64) []string {
	var regressions []string
	for _, name := range sortedMetricNames(baseline.Metrics) {
		base := baseline.Metrics[name]
		cur, present := current.Metrics[name]
		if !present {
			regressions = append(regressions,
				fmt.Sprintf("%s: missing from current run (baseline %.4g)", name, base))
			continue
		}
		worse, gated := higherIsWorse(name)
		if !gated || base == 0 {
			continue
		}
		if worse && cur > base*(1+tolerance) {
			regressions = append(regressions, fmt.Sprintf(
				"%s: %.4g exceeds baseline %.4g by %.1f%% (tolerance %.0f%%)",
				name, cur, base, (cur/base-1)*100, tolerance*100))
		}
		if !worse && cur < base*(1-tolerance) {
			regressions = append(regressions, fmt.Sprintf(
				"%s: %.4g falls short of baseline %.4g by %.1f%% (tolerance %.0f%%)",
				name, cur, base, (1-cur/base)*100, tolerance*100))
		}
	}
	return regressions
}
