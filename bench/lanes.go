package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"tierdb"
	"tierdb/internal/amm"
	"tierdb/internal/column"
	"tierdb/internal/core"
	"tierdb/internal/delta"
	"tierdb/internal/device"
	"tierdb/internal/erp"
	"tierdb/internal/exec"
	"tierdb/internal/mvcc"
	"tierdb/internal/persist"
	"tierdb/internal/schema"
	"tierdb/internal/server"
	"tierdb/internal/server/client"
	"tierdb/internal/sscg"
	"tierdb/internal/storage"
	"tierdb/internal/table"
	"tierdb/internal/tpcc"
	"tierdb/internal/value"
	"tierdb/internal/wal"
	plancache "tierdb/internal/workload"
)

// Micro-lanes: each builds one layer from its exported constructors on
// ORDERLINE data of the run's seed and times an exported call from
// outside. They do not depend on the workload, so one process measures
// them once.
//
// The issue asked for lanes on the full 300 k-row table, 200 ms and five
// repeats each. The driver's budget (92 runs in 3420 s) leaves a traced
// run about twelve seconds for all lanes, so they run on four of the ten
// warehouses (≈120 k rows), for laneRepeats repeats of laneRepeat each.

var laneScale = scale{Warehouses: 4, OrdersPerDistrict: 300, Items: 10000}

type laneBudget struct {
	repeats int
	repeat  time.Duration
}

var (
	fullLanes  = laneBudget{repeats: 3, repeat: 30 * time.Millisecond}
	smokeLanes = laneBudget{repeats: 1, repeat: time.Millisecond}
)

// laneRunner times lanes and records one span per repeat under a root
// span per lane. The first error sticks: later lanes are skipped and
// runLanes returns it.
type laneRunner struct {
	budget laneBudget
	spans  *spanBuf
	out    map[string]metric
	err    error
}

// time runs f, which makes calls calls of the lane's function per
// invocation, for the budgeted repeats and returns the median time of
// one call in nanoseconds. Spans are named for the layer function.
func (lr *laneRunner) time(name string, calls int, f func() error) float64 {
	if lr.err != nil {
		return 0
	}
	root := lr.spans.open("lane:"+name, 0, time.Now())
	perCall := make([]float64, 0, lr.budget.repeats)
	for rep := 0; rep < lr.budget.repeats; rep++ {
		start := time.Now()
		n := 0
		for n == 0 || time.Since(start) < lr.budget.repeat {
			if err := f(); err != nil {
				lr.err = fmt.Errorf("lane %s: %w", name, err)
				return 0
			}
			n += calls
		}
		end := time.Now()
		lr.spans.add(name, root, start, end, n)
		perCall = append(perCall, float64(end.Sub(start))/float64(n))
	}
	lr.spans.finish(root, time.Now())
	return median(perCall)
}

// once times a single call of a lane too heavy to repeat.
func (lr *laneRunner) once(name string, f func() error) float64 {
	if lr.err != nil {
		return 0
	}
	start := time.Now()
	err := f()
	end := time.Now()
	if err != nil {
		lr.err = fmt.Errorf("lane %s: %w", name, err)
		return 0
	}
	root := lr.spans.open("lane:"+name, 0, start)
	lr.spans.add(name, root, start, end, 1)
	lr.spans.finish(root, end)
	return float64(end.Sub(start))
}

func (lr *laneRunner) set(name string, v float64, unit string) {
	lr.out[name] = metric{Value: v, Unit: unit}
}

// runLanes measures every micro-lane and returns the per-layer metrics
// they produce.
func runLanes(seed int64, sc scale, budget laneBudget, tmp string, spans *spanLog) (map[string]metric, error) {
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmp, "lanes-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	lr := &laneRunner{budget: budget, spans: spans.buffer(), out: map[string]metric{}}
	ds := generate(sc, seed)
	rng := rand.New(rand.NewSource(seed))
	for _, lane := range []func(*laneRunner, *dataset, *rand.Rand, string) error{
		wireLanes, columnLanes, tieredLanes, deltaLanes, walLanes, solverLanes, tableLanes,
	} {
		if err := lane(lr, ds, rng, dir); err != nil {
			return nil, err
		}
		if lr.err != nil {
			return nil, lr.err
		}
	}
	return lr.out, nil
}

// wireLanes: request and response framing, without a socket.
func wireLanes(lr *laneRunner, ds *dataset, rng *rand.Rand, _ string) error {
	ins := genStream(ds, mix{InsertFrac: 1}, ds.seed, 0, 1)[0]
	insert := server.Request{Op: server.OpInsert, Table: tableName, Row: ins.row()}
	sel := server.Request{Op: server.OpSelect, Table: tableName, Project: []string{"ol_number", "ol_o_id"},
		Predicates: []server.Predicate{
			client.Eq("ol_o_id", value.NewInt(7)), client.Eq("ol_d_id", value.NewInt(3)), client.Eq("ol_w_id", value.NewInt(1)),
		}}
	resp := server.Response{Status: server.StatusOK}
	for i := 0; i < 10; i++ {
		resp.IDs = append(resp.IDs, uint64(1000+i))
		resp.Rows = append(resp.Rows, []value.Value{value.NewInt(int64(i + 1)), value.NewInt(7)})
	}
	var buf bytes.Buffer
	const batch = 200
	encode := func(name string, f func() error) {
		lr.set(name+"_ns", lr.time(name, batch, func() error {
			for i := 0; i < batch; i++ {
				buf.Reset()
				if err := f(); err != nil {
					return err
				}
			}
			return nil
		}), "ns")
	}
	encode("server.encode_insert", func() error { return server.WriteRequest(&buf, insert) })
	encode("server.encode_select", func() error { return server.WriteRequest(&buf, sel) })
	encode("server.encode_select_resp", func() error { return server.WriteResponse(&buf, server.OpSelect, resp) })
	frame := append([]byte(nil), buf.Bytes()...) // the 10-row reply just encoded
	rd := bytes.NewReader(frame)
	br := bufio.NewReader(rd)
	lr.set("server.decode_select_resp_ns", lr.time("server.decode_select_resp", batch, func() error {
		for i := 0; i < batch; i++ {
			rd.Reset(frame)
			br.Reset(rd)
			payload, err := server.ReadFrame(br)
			if err != nil {
				return err
			}
			if _, err := server.DecodeResponse(server.OpSelect, payload); err != nil {
				return err
			}
		}
		return nil
	}), "ns")
	return nil
}

func intColumn(ds *dataset, col int) []value.Value {
	vals := make([]value.Value, ds.n)
	for i, v := range ds.ints[col] {
		vals[i] = value.NewInt(v)
	}
	return vals
}

func randomRows(rng *rand.Rand, n, count int) []int {
	rows := make([]int, count)
	for i := range rows {
		rows[i] = rng.Intn(n)
	}
	return rows
}

// columnLanes: MRC scans, probes and gets on the two columns CH-Q6
// filters first.
func columnLanes(lr *laneRunner, ds *dataset, rng *rand.Rand, _ string) error {
	date, err := column.Build("ol_delivery_d", value.Int64, intColumn(ds, tpcc.OLDeliveryDate))
	if err != nil {
		return err
	}
	supply, err := column.Build("ol_supply_w_id", value.Int64, intColumn(ds, tpcc.OLSupplyWarehouseID))
	if err != nil {
		return err
	}
	lo, hi := value.NewInt(firstDay+100), value.NewInt(firstDay+100+q6Days-1)
	out := make([]uint32, 0, ds.n)
	lr.set("column.scan_range_ns_per_row", lr.time("column.scan_range", 1, func() error {
		_, err := date.ScanRangeIn(lo, hi, 0, ds.n, out[:0], nil)
		return err
	})/float64(ds.n), "ns")
	lr.set("column.scan_equal_ns_per_row", lr.time("column.scan_equal", 1, func() error {
		_, err := supply.ScanEqualIn(value.NewInt(2), 0, ds.n, out[:0], nil)
		return err
	})/float64(ds.n), "ns")
	cands := make([]uint32, 0, ds.n/100+1)
	for i := 0; i < ds.n; i += 100 { // 1 % of the rows are candidates
		cands = append(cands, uint32(i))
	}
	lr.set("column.probe_ns_per_cand", lr.time("column.probe", 1, func() error {
		_, err := date.ProbeRange(lo, hi, cands, out[:0])
		return err
	})/float64(len(cands)), "ns")
	rows := randomRows(rng, ds.n, 1000)
	lr.set("column.get_ns", lr.time("column.get", len(rows), func() error {
		for _, r := range rows {
			if _, err := date.Get(r); err != nil {
				return err
			}
		}
		return nil
	}), "ns")
	return nil
}

// tieredLanes: the SSCG of the six columns LayoutForBudget(0.2) evicts,
// on a real file, behind a page cache that fits it (hits) and behind
// one of eight frames (faults); then the cache and the file on their
// own. The file sits in the OS page cache: these are the sandbox's
// latencies, not a device's, which is what model_wall_ratio records.
func tieredLanes(lr *laneRunner, ds *dataset, rng *rand.Rand, dir string) error {
	layout := tpcc.LayoutForBudget(0.2)
	var fields []schema.Field
	var cols []int
	for c, f := range tpcc.OrderLineSchema().Fields() {
		if !layout[c] {
			fields = append(fields, f)
			cols = append(cols, c)
		}
	}
	rows := make([][]value.Value, ds.n)
	for i := range rows {
		r := make([]value.Value, len(cols))
		for j, c := range cols {
			r[j] = ds.cell(i, c)
		}
		rows[i] = r
	}
	store, err := storage.NewFileStore(filepath.Join(dir, "lane_pages"))
	if err != nil {
		return err
	}
	defer store.Close()
	// The first group built on the fresh file holds pages 0..pages-1.
	hit, err := sscg.Build(fields, rows, store, nil)
	if err != nil {
		return err
	}
	pages := hit.PageCount()
	big, err := amm.New(pages, store)
	if err != nil {
		return err
	}
	small, err := amm.New(8, store)
	if err != nil {
		return err
	}
	if hit, err = sscg.Build(fields, rows, store, big); err != nil {
		return err
	}
	fault, err := sscg.Build(fields, rows, store, small)
	if err != nil {
		return err
	}
	for row := 0; row < ds.n; row += hit.RowsPerPage() { // fault every page in once
		if _, err := hit.ReadRow(row); err != nil {
			return err
		}
	}
	sample := randomRows(rng, ds.n, 500)
	readRows := func(g *sscg.Group) func() error {
		return func() error {
			for _, r := range sample {
				if _, err := g.ReadRow(r); err != nil {
					return err
				}
			}
			return nil
		}
	}
	lr.set("sscg.read_row_hit_ns", lr.time("sscg.read_row", len(sample), readRows(hit)), "ns")
	lr.set("sscg.read_row_fault_ns", lr.time("sscg.read_row", len(sample), readRows(fault)), "ns")

	qty := hit.FieldIndex("ol_quantity")
	few := func(v value.Value) bool { return v.Int() <= scanQtyHi }
	cands := make([]uint32, len(sample))
	for i, r := range sample {
		cands[i] = uint32(r)
	}
	out := make([]uint32, 0, ds.n)
	lr.set("sscg.probe_ns_per_cand", lr.time("sscg.probe", 1, func() error {
		_, err := hit.Probe(qty, few, cands, out[:0])
		return err
	})/float64(len(cands)), "ns")
	lr.set("sscg.scan_ns_per_page", lr.time("sscg.scan", 1, func() error {
		_, err := hit.Scan(qty, few, out[:0], nil)
		return err
	})/float64(pages), "ns")

	ids := make([]storage.PageID, len(sample))
	for i := range ids {
		ids[i] = storage.PageID(rng.Intn(pages))
	}
	getRelease := func(c *amm.Cache) func() error {
		return func() error {
			for _, id := range ids {
				if _, _, err := c.Get(id); err != nil {
					return err
				}
				c.Release(id)
			}
			return nil
		}
	}
	if err := getRelease(big)(); err != nil { // fault the sampled pages in
		return err
	}
	lr.set("amm.get_hit_ns", lr.time("amm.get", len(ids), getRelease(big)), "ns")
	lr.set("amm.get_fault_ns", lr.time("amm.get", len(ids), getRelease(small)), "ns")

	buf := make([]byte, storage.PageSize)
	read := lr.time("storage.file_read_page", len(ids), func() error {
		for _, id := range ids {
			if err := store.ReadPage(id, buf); err != nil {
				return err
			}
		}
		return nil
	})
	lr.set("storage.file_read_page_us", read/1e3, "us")
	scratch := make([]storage.PageID, 64)
	for i := range scratch {
		if scratch[i], err = store.Allocate(); err != nil {
			return err
		}
	}
	lr.set("storage.file_write_page_us", lr.time("storage.file_write_page", len(scratch), func() error {
		for _, id := range scratch {
			if err := store.WritePage(id, buf); err != nil {
				return err
			}
		}
		return nil
	})/1e3, "us")
	essd, err := device.ByName("ESSD")
	if err != nil {
		return err
	}
	modeled := float64(essd.RandomReadTime(1, 1))
	lr.set("storage.modeled_read_page_us", modeled/1e3, "us")
	if read > 0 {
		lr.set("storage.model_wall_ratio", modeled/read, "1")
	}
	return nil
}

// deltaLanes: the write-optimized partition, the transaction manager
// under it and the plan cache beside it, without a log.
func deltaLanes(lr *laneRunner, ds *dataset, rng *rand.Rand, _ string) error {
	rows := ds.loadRows()
	mgr := mvcc.NewManager()
	const batch = 500
	var part *delta.Partition
	at := 0
	lr.set("delta.insert_ns", lr.time("delta.insert", batch, func() error {
		if part == nil || at+batch > len(rows) { // keep a partition at or below the dataset's size
			part, at = delta.New(tpcc.OrderLineSchema()), 0
		}
		tx := mgr.Begin()
		for _, r := range rows[at : at+batch] {
			if _, err := part.Insert(tx, r); err != nil {
				return err
			}
		}
		at += batch
		_, err := mgr.Commit(tx)
		return err
	}), "ns")

	scanRows := min(50_000, len(rows))
	part = delta.New(tpcc.OrderLineSchema())
	for _, r := range rows[:scanRows] {
		if _, err := part.Append(r, 1); err != nil {
			return err
		}
	}
	out := make([]uint32, 0, scanRows)
	snapshot := mgr.LastCommit() + 1
	lr.set("delta.scan_equal_ns_per_row", lr.time("delta.scan_equal", 1, func() error {
		_, err := part.ScanEqual(tpcc.OLOrderID, value.NewInt(7), snapshot, 0, out[:0])
		return err
	})/float64(scanRows), "ns")

	lr.set("mvcc.begin_commit_ns", lr.time("mvcc.begin_commit", batch, func() error {
		for i := 0; i < batch; i++ {
			if _, err := mgr.Commit(mgr.Begin()); err != nil {
				return err
			}
		}
		return nil
	}), "ns")

	pc := plancache.NewPlanCache()
	key := []int{tpcc.OLOrderID, tpcc.OLDistrictID, tpcc.OLWarehouseID}
	lr.set("workload.record_ns", lr.time("workload.record", batch, func() error {
		for i := 0; i < batch; i++ {
			pc.Record(key)
		}
		return nil
	}), "ns")
	return nil
}

type discardReplay struct{}

func (discardReplay) CreateTable(string, []schema.Field) error   { return nil }
func (discardReplay) ApplyLayout(string, []bool) error           { return nil }
func (discardReplay) CreateIndex(string, []int) error            { return nil }
func (discardReplay) Commit(mvcc.Timestamp, []mvcc.RedoOp) error { return nil }
func (discardReplay) Checkpoint(mvcc.Timestamp)                  {}

// walLanes: the log on the real filesystem, one-row commits.
func walLanes(lr *laneRunner, ds *dataset, rng *rand.Rand, dir string) error {
	rows := ds.loadRows()
	var ts mvcc.Timestamp
	alloc := func() mvcc.Timestamp { ts++; return ts }
	ctx := context.Background()
	next := 0
	commit := func(log *wal.Log) error {
		ops := []mvcc.RedoOp{{Table: tableName, Row: rows[next%len(rows)]}}
		next++
		_, err := log.AppendCommit(ctx, alloc, ops)
		return err
	}
	// with opens a log under dir, runs f on it and closes it.
	with := func(sub string, policy wal.SyncPolicy, f func(*wal.Log) error) error {
		log, err := wal.Open(wal.Options{Dir: filepath.Join(dir, sub), Policy: policy})
		if err != nil {
			return err
		}
		if err := f(log); err != nil {
			log.Close()
			return err
		}
		return log.Close()
	}
	const batch = 200
	err := with("wal_group", wal.SyncGroup, func(log *wal.Log) error {
		lr.set("wal.append_group_us", lr.time("wal.append_commit", batch, func() error {
			for i := 0; i < batch; i++ {
				if err := commit(log); err != nil {
					return err
				}
			}
			return nil
		})/1e3, "us")
		lr.set("wal.sync_us", lr.time("wal.sync", 1, func() error {
			if err := commit(log); err != nil {
				return err
			}
			return log.Sync()
		})/1e3, "us")
		return nil
	})
	if err != nil {
		return err
	}
	err = with("wal_always", wal.SyncAlways, func(log *wal.Log) error {
		lr.set("wal.append_always_us", lr.time("wal.append_commit", 1, func() error { return commit(log) })/1e3, "us")
		return nil
	})
	if err != nil {
		return err
	}
	records := min(50_000, len(rows))
	err = with("wal_replay", wal.SyncOff, func(log *wal.Log) error {
		for i := 0; i < records; i++ {
			if err := commit(log); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	lr.set("wal.replay_us_per_record", lr.once("wal.replay", func() error {
		stats, err := wal.Replay(wal.OSFS{}, filepath.Join(dir, "wal_replay"), discardReplay{})
		if err == nil && stats.Records != records {
			err = fmt.Errorf("%d records replayed, %d written", stats.Records, records)
		}
		return err
	})/1e3/float64(records), "us")
	return nil
}

// solverLanes: the column selection model on a BSEG-sized workload
// (345 columns), off the request path.
func solverLanes(lr *laneRunner, ds *dataset, rng *rand.Rand, _ string) error {
	w, err := erp.Workload(erp.Profiles()[0], ds.seed)
	if err != nil {
		return err
	}
	costs := core.DefaultCostParams()
	budget := int64(0.2 * float64(w.TotalSize()))
	lr.set("core.explicit_solve_us", lr.time("core.explicit_solve", 1, func() error {
		_, err := core.ExplicitForBudget(w, costs, budget, nil, 0)
		return err
	})/1e3, "us")
	lr.set("core.ilp_solve_ms", lr.time("core.ilp_solve", 1, func() error {
		_, err := core.OptimalILP(w, costs, budget)
		return err
	})/1e6, "ms")
	return nil
}

// tableLanes: a whole database on the lane data — one BulkLoad, the
// executor at Parallelism 1 and 2 over the DRAM-resident table, the
// advisor over the plan cache those queries leave, a merge of 6 % fresh
// delta rows, a snapshot, and last the move to the tiered layout.
func tableLanes(lr *laneRunner, ds *dataset, rng *rand.Rand, dir string) error {
	db, err := tierdb.Open(tierdb.Config{
		ListenAddr: "127.0.0.1:0", LogLevel: "warn",
		PageFile: filepath.Join(dir, "table_pages"), Device: "ESSD", CacheFrames: 256,
	})
	if err != nil {
		return err
	}
	defer db.Close()
	tbl, err := db.CreateTable(tableName, tpcc.OrderLineSchema().Fields())
	if err != nil {
		return err
	}
	lr.set("table.bulkload_us_per_row", lr.once("table.bulkload", func() error {
		return tbl.BulkLoad(ds.loadRows())
	})/1e3/float64(ds.n), "us")
	if lr.err != nil {
		return lr.err
	}
	if err := tbl.CreateIndex("ol_o_id"); err != nil {
		return err
	}

	c, err := client.Dial(client.Config{Addr: db.ServerAddr(), PoolSize: 1})
	if err != nil {
		return err
	}
	defer c.Close()
	lr.set("server.rtt_ping_us", lr.time("server.rtt_ping", 50, func() error {
		for i := 0; i < 50; i++ {
			if err := c.Ping(); err != nil {
				return err
			}
		}
		return nil
	})/1e3, "us")

	// The executors are built beside the table's own, without a
	// registry, clock or trace ring: the engine's bare cost.
	query := func(o *op, project ...int) exec.Query {
		q := exec.Query{Project: project}
		for _, p := range o.preds(nil) {
			if p.rng {
				q.Predicates = append(q.Predicates, exec.Predicate{Column: p.col, Op: exec.Between, Value: value.NewInt(p.lo), Hi: value.NewInt(p.hi)})
			} else {
				q.Predicates = append(q.Predicates, exec.Predicate{Column: p.col, Op: exec.Eq, Value: value.NewInt(p.lo)})
			}
		}
		return q
	}
	runAll := func(e *exec.Executor, qs []exec.Query) func() error {
		return func() error {
			for _, q := range qs {
				if _, err := e.Run(q, nil); err != nil {
					return err
				}
			}
			return nil
		}
	}
	var q6 []exec.Query
	for _, o := range genStream(ds, mix{Read: "q6"}, ds.seed, 0, 16) {
		q6 = append(q6, query(&o, tpcc.OLAmount))
	}
	var perQuery [3]float64
	for p := 1; p <= 2; p++ {
		run := runAll(exec.New(tbl.Inner(), exec.Options{Parallelism: p}), q6)
		perQuery[p] = lr.time("exec.run_q6", len(q6), run)
		lr.set(fmt.Sprintf("exec.q6_p%d_us", p), perQuery[p]/1e3, "us")
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := run(); err != nil {
			return err
		}
		runtime.ReadMemStats(&after)
		lr.set(fmt.Sprintf("exec.q6_allocs_p%d", p), float64(after.Mallocs-before.Mallocs)/float64(len(q6)), "count")
	}
	if perQuery[2] > 0 {
		lr.set("exec.parallel_speedup_x", perQuery[1]/perQuery[2], "x")
	}

	serial := exec.New(tbl.Inner(), exec.Options{})
	var lookups []exec.Query
	for _, o := range genStream(ds, lookup, ds.seed, 0, 256) {
		lookups = append(lookups, query(&o, tpcc.OLNumber, tpcc.OLOrderID))
	}
	lr.set("exec.lookup_us", lr.time("exec.run_lookup", len(lookups), runAll(serial, lookups))/1e3, "us")
	reconstruct := func(e *exec.Executor, ids []int) func() error {
		return func() error {
			for _, id := range ids {
				if _, err := e.Reconstruct(table.RowID(id)); err != nil {
					return err
				}
			}
			return nil
		}
	}
	ids := randomRows(rng, ds.n, 256)
	lr.set("exec.reconstruct_dram_us", lr.time("exec.reconstruct", len(ids), reconstruct(serial, ids))/1e3, "us")

	// The advisor reads the plan cache, which only the table's own
	// Select feeds: send the Q6 set through it once.
	for i := range q6 {
		if _, err := tbl.Select(nil, q6[i].Predicates, "ol_amount"); err != nil {
			return err
		}
	}
	lr.set("core.advise_ms", lr.time("core.advise", 1, func() error {
		_, err := tbl.Advise(tierdb.AdvisorQuery{RelativeBudget: 0.4})
		return err
	})/1e6, "ms")

	fresh := genStream(ds, mix{InsertFrac: 1}, ds.seed, 0, ds.n/16)
	for i := range fresh {
		if err := tbl.Insert(fresh[i].row()); err != nil {
			return err
		}
	}
	merged := ds.n + len(fresh)
	lr.set("table.merge_us_per_row", lr.once("table.merge", tbl.Merge)/1e3/float64(merged), "us")

	// The body of DB.Checkpoint: one table snapshot written and synced.
	// (Checkpoint itself needs a WAL, which two of the workloads lack.)
	var size int64
	lr.set("persist.checkpoint_ms", lr.once("persist.save", func() error {
		f, err := os.Create(filepath.Join(dir, "snapshot"))
		if err != nil {
			return err
		}
		defer f.Close()
		if err := persist.SaveAt(f, tbl.Inner(), tbl.Inner().Manager().LastCommit()); err != nil {
			return err
		}
		if err := f.Sync(); err != nil {
			return err
		}
		st, err := f.Stat()
		if err == nil {
			size = st.Size()
		}
		return err
	})/1e6, "ms")
	lr.set("persist.snapshot_bytes_per_row", float64(size)/float64(merged), "B")

	lr.set("table.apply_layout_ms", lr.once("table.apply_layout", func() error {
		return tbl.ApplyLayout(tierdb.Layout{InDRAM: tpcc.LayoutForBudget(0.2)})
	})/1e6, "ms")
	// Eight times more rows than the cache has frames, so most fault.
	ids = randomRows(rng, ds.n, 2048)
	lr.set("exec.reconstruct_tiered_us", lr.time("exec.reconstruct", len(ids), reconstruct(exec.New(tbl.Inner(), exec.Options{}), ids))/1e3, "us")
	return nil
}
