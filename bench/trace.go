package main

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"time"

	"tierdb"
)

// runTraced produces a workload's per-layer numbers. After the usual
// set-up and warm-up it runs the workload three times for opt.pass():
//
//	pass 0  over TCP, untraced, half before and half after pass 1 —
//	        only to price the tracing;
//	pass 1  over TCP, one client.rtt span per request, DB.Stats()
//	        snapshotted before and after;
//	pass 2  the ops pass 1 sent, replayed in-process against
//	        *tierdb.Table with one engine span per call.
//
// Nothing measured here enters the end-to-end figures of the untraced
// run. lanes are the workload-independent micro-lane metrics.
func runTraced(wl *workload, ds *dataset, opt options, lanes map[string]metric, spans *spanLog) (*result, error) {
	r := &result{Workload: wl.Name, Seed: opt.seed, Traced: true, Correct: true, Metrics: map[string]metric{}}
	for name, m := range lanes {
		r.Metrics[name] = m
	}
	in, err := setUp(wl, ds, opt)
	if err != nil {
		return nil, err
	}
	defer in.tearDown()
	setupSpans(in, spans.buffer())
	ws := newWorkers(wl, ds, in, opt.seed, opt.warmup()+2*opt.pass())
	ds.dropRows()

	if _, err := runPhase(in, ws, phase{dur: opt.warmup(), verifyAll: true, ds: ds}, 0); err != nil {
		return nil, err
	}
	for _, w := range ws {
		if w.firstErr != nil {
			return nil, fmt.Errorf("%s warm-up: %w", wl.Name, w.firstErr)
		}
	}

	// Half of the untraced pass runs before the traced one and half
	// after, so that a drift across the passes (the delta of oltp_point
	// grows, and its lookups slow down with it) cancels out of the
	// comparison.
	var elapsed0 time.Duration
	var ok0 float64
	untracedHalf := func() error {
		took, err := runPhase(in, ws, phase{dur: opt.pass() / 2, ds: ds}, 0)
		elapsed0 += took.wall
		ok0 += okOps(ws)
		checkKept(ws, ds, r)
		return err
	}
	if err := untracedHalf(); err != nil {
		return nil, err
	}

	from := make([]int, len(ws))
	for i, w := range ws {
		from[i] = w.pos
	}
	before := in.db.Stats()
	// The pass is long enough for one merge cycle.
	merges := wl.Merges
	if merges > 1 {
		merges = 1
	}
	took, err := runPhase(in, ws, phase{dur: opt.pass(), ds: ds, spans: spans}, merges)
	if err != nil {
		return nil, err
	}
	after := in.db.Stats()
	elapsed1 := took.wall
	checkKept(ws, ds, r)
	to := make([]int, len(ws))
	for i, w := range ws {
		to[i] = w.pos
	}
	var reads, writes, lags []int64
	var acked int64
	for _, w := range ws {
		r.Attempted += w.attempted
		r.Failed += w.failed
		acked += w.acked
		reads = append(reads, w.reads...)
		writes = append(writes, w.writes...)
		lags = append(lags, w.lags...)
		if w.firstErr != nil {
			r.problem("request failed: %v", w.firstErr)
		}
	}
	ok1 := okOps(ws)
	if ok1 <= 0 {
		return nil, fmt.Errorf("%s: no request succeeded in the traced pass", wl.Name)
	}
	if got, err := in.clients[0].Rows(tableName); err != nil {
		r.problem("row count: %v", err)
	} else if want := in.loaded + int(acked); got != want {
		r.problem("table holds %d rows, want %d loaded + %d acknowledged inserts", got, in.loaded, acked)
	}
	if err := untracedHalf(); err != nil {
		return nil, err
	}
	slices.Sort(reads)
	slices.Sort(writes)
	slices.Sort(lags)
	statsMetrics(r, before, after, elapsed1, ok1)
	r.set("trace.overhead_frac", 1-(ok1/elapsed1.Seconds())/(ok0/elapsed0.Seconds()), "1")
	r.set("loadgen.send_lag_p95_us", tail(lags, 0.95), "us")
	r.set("table.stall_write_p95_us", tail(writes, 0.95), "us")
	r.set("table.stall_write_p99_us", tail(writes, 0.99), "us")
	r.set("table.stall_read_p95_us", tail(reads, 0.95), "us")
	r.set("table.stall_write_slo_miss_frac", fracAbove(writes, stallLimit), "1")

	engine, modeled := replay(in, ws, from, to, opt.pass()/2, spans)
	slices.Sort(engine.reads)
	slices.Sort(engine.writes)
	r.set("server.share_select_us", tail(reads, 0.5)-tail(engine.reads, 0.5), "us")
	r.set("server.share_insert_us", tail(writes, 0.5)-tail(engine.writes, 0.5), "us")
	var wall int64
	for _, ns := range append(engine.reads, engine.writes...) {
		wall += ns
	}
	if engine.err != nil {
		r.problem("in-process replay: %v", engine.err)
	}
	if wall > 0 {
		r.set("exec.model_wall_ratio", float64(modeled)/float64(wall), "1")
	} else {
		r.set("exec.model_wall_ratio", 0, "1")
	}
	checkStreams(ws, r)
	if err := in.closeDB(); err != nil {
		r.problem("close: %v", err)
	}
	return r, nil
}

// stallLimit is the latency above which an Insert counts as stalled.
const stallLimit = 10 * time.Millisecond

func okOps(ws []*worker) float64 {
	var ok int64
	for _, w := range ws {
		ok += w.attempted - w.failed
	}
	return float64(ok)
}

// tail is the q-quantile of sorted nanosecond samples in microseconds;
// 0 when there are none (a read-only workload has no write stalls). The
// per-layer tails are diagnostics, so they are reported whatever the
// sample count.
func tail(sorted []int64, q float64) float64 {
	v, _ := percentile(sorted, q)
	return float64(v) / 1e3
}

func fracAbove(sorted []int64, limit time.Duration) float64 {
	if len(sorted) == 0 {
		return 0
	}
	n := 0
	for _, v := range sorted {
		if v > int64(limit) {
			n++
		}
	}
	return float64(n) / float64(len(sorted))
}

// setupSpans turns the timed steps of the set-up into spans.
func setupSpans(in *instance, b *spanBuf) {
	end := in.start.Add(in.setup)
	root := b.add("setup", 0, in.start, end, 1)
	for _, s := range in.steps {
		b.add("table."+s.name, root, s.start, s.end, 1)
	}
}

// statsMetrics derives the counter-based per-layer metrics from two
// DB.Stats() snapshots taken elapsed apart, during which ops requests
// succeeded. A busy fraction is busy time over wall time, so two
// requests in service all the time read 2.
func statsMetrics(r *result, before, after tierdb.StatsSnapshot, elapsed time.Duration, ops float64) {
	count := func(name string) float64 { return float64(after.Counters[name] - before.Counters[name]) }
	busy := func(hist string) float64 {
		return float64(after.Histograms[hist].Sum-before.Histograms[hist].Sum) / float64(elapsed)
	}
	device := func(suffix string) float64 {
		var n float64
		for name := range after.Counters {
			if strings.HasPrefix(name, "device.") && strings.HasSuffix(name, suffix) {
				n += count(name)
			}
		}
		return n
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	r.set("server.request_busy_frac", busy("server.request_ns"), "1")
	r.set("server.requests", count("server.requests_total"), "count")
	r.set("server.rejects", count("server.rejects"), "count")
	r.set("server.errors", count("server.errors"), "count")

	r.set("exec.busy_frac", busy("exec.wall_ns"), "1")
	r.set("exec.rows_scanned_per_result", ratio(count("exec.rows.scanned"), count("exec.rows.qualified")), "1")
	r.set("exec.mrc_scans", count("exec.path.mrc_scans"), "count")
	r.set("exec.mrc_probes", count("exec.path.mrc_probes"), "count")
	r.set("exec.sscg_scans", count("exec.path.sscg_scans"), "count")
	r.set("exec.sscg_probes", count("exec.path.sscg_probes"), "count")
	r.set("exec.index_lookups", count("exec.path.index_lookups"), "count")
	r.set("exec.scan_to_probe", count("exec.switch.scan_to_probe"), "count")

	hits, misses := count("amm.hits"), count("amm.misses")
	r.set("amm.hit_ratio", ratio(hits, hits+misses), "1")
	r.set("amm.misses_per_op", misses/ops, "1")
	r.set("amm.evictions_per_op", count("amm.evictions")/ops, "1")
	r.set("amm.fault_busy_frac", busy("amm.fault_ns"), "1")

	r.set("storage.page_reads_per_op", device(".page_reads")/ops, "1")
	r.set("storage.page_writes", device(".page_writes"), "count")

	r.set("delta.inserts", count("delta.inserts"), "count")
	r.set("delta.visibility_checks_per_op", count("delta.visibility_checks")/ops, "1")

	r.set("mvcc.commits", count("mvcc.tx.commit"), "count")
	r.set("mvcc.aborts", count("mvcc.tx.abort"), "count")

	r.set("wal.appends", count("wal.appends"), "count")
	r.set("wal.fsyncs", count("wal.fsyncs"), "count")
	r.set("wal.appends_per_fsync", ratio(count("wal.appends"), count("wal.fsyncs")), "1")
	r.set("wal.bytes_per_row", ratio(count("wal.bytes"), count("delta.inserts")), "B")

	r.set("table.merges", count("table.merges"), "count")
	r.set("table.merge_rows", count("merge.rows"), "count")
	r.set("table.merge_busy_frac", busy("merge.ns"), "1")
	r.set("table.merge_stragglers", count("merge.stragglers"), "count")
	r.set("table.merge_failures", count("merge.failures"), "count")

	r.set("persist.checkpoints", count("wal.checkpoints"), "count")
}

type engineTimes struct {
	reads, writes []int64
	err           error
}

// replay runs in-process the ops each worker sent in pass 1 (positions
// from[i] up to to[i] of its stream), one worker after the other and for at most
// limit in all: the engine on its own, without a second caller or a
// socket competing for the two cores. It returns the engine's wall time
// per call and the modeled time the calls accrued.
func replay(in *instance, ws []*worker, from, to []int, limit time.Duration, spans *spanLog) (engineTimes, time.Duration) {
	var all engineTimes
	modeled := in.db.Clock().Elapsed()
	buf := spans.buffer()
	ctx := context.Background()
	for i, w := range ws {
		deadline := time.Now().Add(limit / time.Duration(len(ws)))
		root := buf.open("pass2.worker", 0, time.Now())
		for pos := from[i]; pos < to[i] && time.Now().Before(deadline); pos++ {
			o := &w.ops[pos%len(w.ops)]
			start := time.Now()
			_, err := w.call(ctx, in.tbl, o)
			end := time.Now()
			if err != nil {
				all.err = err
				break
			}
			if o.kind.isWrite() {
				buf.add("engine.insert", root, start, end, 1)
				all.writes = append(all.writes, int64(end.Sub(start)))
			} else {
				buf.add("engine.select", root, start, end, 1)
				all.reads = append(all.reads, int64(end.Sub(start)))
			}
		}
		buf.finish(root, time.Now())
	}
	return all, in.db.Clock().Elapsed() - modeled
}
