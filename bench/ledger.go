package main

// metricDef declares one metric of the benchmark.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline's median by which an
	// end-to-end metric may get worse before -compare calls it
	// regressed; for error_frac it is absolute. Per-layer metrics have
	// no bound.
	Bound float64
	// Only lists the workloads that report the metric; nil means all.
	Only []string
}

func (d metricDef) appliesTo(workload string) bool {
	if d.Only == nil {
		return true
	}
	for _, w := range d.Only {
		if w == workload {
			return true
		}
	}
	return false
}

// endToEnd is what a user of the database sees. The metrics every
// workload reports are the ones BENCHMARK.json lists (the driver wants
// every listed metric from every workload, and none that can read 0);
// the others are measured, printed, recorded and compared all the same.
//
// The counted metrics carry bounds of three or more times their widest
// spread (interquartile range over median, ten seeds). The timed ones
// sit at the contract's cap: BENCHMARK.json has one bound per metric,
// and on the 2-vCPU shared box this was written on the least steady
// workload spreads 8 % in a quiet quarter of an hour and up to 30 % in
// a busy one. README.md has the numbers.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "read_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.08},
	{Name: "modeled_us_per_op", Unit: "us", Better: "lower", Bound: 0.03},
	{Name: "dram_mb", Unit: "MB", Better: "lower", Bound: 0.02},
	{Name: "heap_mb_loaded", Unit: "MB", Better: "lower", Bound: 0.05},

	{Name: "read_p95_us", Unit: "us", Better: "lower", Bound: 0.25, Only: []string{"oltp_point", "olap_scan", "tiered_probe"}},
	{Name: "write_p50_us", Unit: "us", Better: "lower", Bound: 0.25, Only: []string{"oltp_point"}},
	{Name: "write_p95_us", Unit: "us", Better: "lower", Bound: 0.25, Only: []string{"oltp_point"}},
	{Name: "recovery_us_per_row", Unit: "us", Better: "lower", Bound: 0.25, Only: []string{"oltp_point", "htap_mixed"}},
	{Name: "secondary_mb", Unit: "MB", Better: "lower", Bound: 0.02, Only: []string{"tiered_probe", "htap_mixed"}},
	{Name: "error_frac", Unit: "1", Better: "lower", Bound: 0.001},
}

// defByName finds a metric's declaration.
func defByName(name string) (metricDef, bool) {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if d.Name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}

// gated are the end-to-end metrics BENCHMARK.json lists.
func gated() []metricDef {
	var out []metricDef
	for _, d := range endToEnd {
		if d.Only == nil && d.Name != "error_frac" {
			out = append(out, d)
		}
	}
	return out
}

func lower(unit string, names ...string) []metricDef {
	out := make([]metricDef, len(names))
	for i, n := range names {
		out[i] = metricDef{Name: n, Unit: unit, Better: "lower"}
	}
	return out
}

func higher(unit string, names ...string) []metricDef {
	out := lower(unit, names...)
	for i := range out {
		out[i].Better = "higher"
	}
	return out
}

func concat(lists ...[]metricDef) []metricDef {
	var out []metricDef
	for _, l := range lists {
		out = append(out, l...)
	}
	return out
}

// perLayer is the ledger of the traced run, one prefix per module. The
// sources: micro-lanes (lanes.go), deltas of DB.Stats() over the traced
// pass, and figures derived from spans (trace.go). A counter whose
// layer did no work in a workload reads 0 there; that is a measurement
// (wal.appends on olap_scan is the claim "the log is idle").
var perLayer = concat(
	// server (+ server/client)
	lower("us", "server.rtt_ping_us", "server.share_select_us", "server.share_insert_us"),
	lower("ns", "server.encode_insert_ns", "server.encode_select_ns", "server.encode_select_resp_ns", "server.decode_select_resp_ns"),
	lower("1", "server.request_busy_frac"),
	higher("count", "server.requests"),
	lower("count", "server.rejects", "server.errors"),
	// exec
	lower("us", "exec.q6_p1_us", "exec.q6_p2_us", "exec.lookup_us", "exec.reconstruct_dram_us", "exec.reconstruct_tiered_us"),
	higher("x", "exec.parallel_speedup_x"),
	lower("count", "exec.q6_allocs_p1", "exec.q6_allocs_p2"),
	lower("1", "exec.busy_frac", "exec.rows_scanned_per_result"),
	higher("count", "exec.mrc_scans", "exec.mrc_probes", "exec.sscg_scans", "exec.sscg_probes", "exec.index_lookups", "exec.scan_to_probe"),
	higher("1", "exec.model_wall_ratio"),
	// column (+ dict)
	lower("ns", "column.scan_range_ns_per_row", "column.scan_equal_ns_per_row", "column.probe_ns_per_cand", "column.get_ns"),
	// sscg
	lower("ns", "sscg.read_row_hit_ns", "sscg.read_row_fault_ns", "sscg.probe_ns_per_cand", "sscg.scan_ns_per_page"),
	// amm
	lower("ns", "amm.get_hit_ns", "amm.get_fault_ns"),
	higher("1", "amm.hit_ratio"),
	lower("1", "amm.misses_per_op", "amm.evictions_per_op", "amm.fault_busy_frac"),
	// storage (+ device)
	lower("us", "storage.file_read_page_us", "storage.file_write_page_us", "storage.modeled_read_page_us"),
	higher("1", "storage.model_wall_ratio"),
	lower("1", "storage.page_reads_per_op"),
	lower("count", "storage.page_writes"),
	// delta
	lower("ns", "delta.insert_ns", "delta.scan_equal_ns_per_row"),
	higher("count", "delta.inserts"),
	lower("1", "delta.visibility_checks_per_op"),
	// mvcc
	lower("ns", "mvcc.begin_commit_ns"),
	higher("count", "mvcc.commits"),
	lower("count", "mvcc.aborts"),
	// wal
	lower("us", "wal.append_group_us", "wal.append_always_us", "wal.sync_us", "wal.replay_us_per_record"),
	higher("count", "wal.appends"),
	lower("count", "wal.fsyncs"),
	higher("1", "wal.appends_per_fsync"),
	lower("B", "wal.bytes_per_row"),
	// table (merge, layout)
	lower("us", "table.bulkload_us_per_row", "table.merge_us_per_row"),
	lower("ms", "table.apply_layout_ms"),
	higher("count", "table.merges", "table.merge_rows"),
	lower("1", "table.merge_busy_frac"),
	lower("count", "table.merge_stragglers", "table.merge_failures"),
	lower("us", "table.stall_write_p95_us", "table.stall_write_p99_us", "table.stall_read_p95_us"),
	lower("1", "table.stall_write_slo_miss_frac"),
	// persist
	lower("ms", "persist.checkpoint_ms"),
	lower("B", "persist.snapshot_bytes_per_row"),
	higher("count", "persist.checkpoints"),
	// core / solver
	lower("us", "core.explicit_solve_us"),
	lower("ms", "core.ilp_solve_ms", "core.advise_ms"),
	// workload
	lower("ns", "workload.record_ns"),
	// harness: validity checks, not targets
	lower("1", "trace.overhead_frac"),
	lower("us", "loadgen.send_lag_p95_us"),
)
