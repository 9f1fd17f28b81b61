package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"

	"tierdb"
	"tierdb/internal/exec"
	"tierdb/internal/server"
	"tierdb/internal/server/client"
	"tierdb/internal/tpcc"
	"tierdb/internal/value"
)

// options are the knobs of one invocation; the workload constants are
// not among them.
type options struct {
	seed   int64
	window time.Duration
	sc     scale // dataset of the workloads
	laneSc scale // dataset of the micro-lanes
	lanes  laneBudget
	tmp    string // scratch directory, inside the working directory
	// smoke marks a run on the tiny dataset that checks the harness and
	// measures nothing.
	smoke bool
}

// The warm-up and the traced passes are fixed shares of the window, so
// that -seconds shrinks or stretches every phase evenly.
func (o options) warmup() time.Duration { return o.window * 15 / 100 }
func (o options) pass() time.Duration   { return o.window * 30 / 100 }

const sampleEvery = 64

// metric is one reported number. N is the sample count behind a
// percentile (0 where the figure is not a percentile).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// result is what one run of one workload produced.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Problems  []string          `json:"problems,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) problem(format string, args ...any) {
	r.Correct = false
	if len(r.Problems) < 10 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// instance is one opened, loaded and dialed database.
type instance struct {
	wl      *workload
	dir     string
	db      *tierdb.DB
	tbl     *tierdb.Table
	clients []*client.Client
	loaded  int
	start   time.Time
	setup   time.Duration // Open until the last client is dialed
	// steps times the set-up's calls into the table layer (traced runs
	// turn them into spans).
	steps []setupStep
}

type setupStep struct {
	name       string
	start, end time.Time
}

// setUp opens a fresh database in a new directory, loads the dataset
// with one BulkLoad, applies the workload's layout and index, and dials
// one single-connection client per worker. Every worker has its own
// connection because client.Client round-robins a shared pool of
// FIFO-pipelined sessions: a shared pool queues an Insert behind
// another worker's scan half the time.
func setUp(wl *workload, ds *dataset, opt options) (*instance, error) {
	if err := os.MkdirAll(opt.tmp, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(opt.tmp, wl.Name+"-")
	if err != nil {
		return nil, err
	}
	in := &instance{wl: wl, dir: dir, loaded: ds.n, start: time.Now()}
	cfg := wl.config(dir)
	cfg.ListenAddr = "127.0.0.1:0"
	if in.db, err = tierdb.Open(cfg); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	step := func(name string, f func() error) error {
		t := time.Now()
		err := f()
		in.steps = append(in.steps, setupStep{name, t, time.Now()})
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}
	err = func() error {
		if in.tbl, err = in.db.CreateTable(tableName, tpcc.OrderLineSchema().Fields()); err != nil {
			return err
		}
		if err := step("bulkload", func() error { return in.tbl.BulkLoad(ds.loadRows()) }); err != nil {
			return err
		}
		if l := wl.layout(); l != nil {
			if err := step("apply_layout", func() error { return in.tbl.ApplyLayout(tierdb.Layout{InDRAM: l}) }); err != nil {
				return err
			}
		}
		if wl.Index {
			if err := step("create_index", func() error { return in.tbl.CreateIndex("ol_o_id") }); err != nil {
				return err
			}
		}
		for range wl.Workers {
			c, err := client.Dial(client.Config{Addr: in.db.ServerAddr(), PoolSize: 1})
			if err != nil {
				return err
			}
			in.clients = append(in.clients, c)
		}
		return nil
	}()
	if err != nil {
		in.tearDown()
		return nil, fmt.Errorf("set-up of %s: %w", wl.Name, err)
	}
	in.setup = time.Since(in.start)
	return in, nil
}

// closeDB closes the clients and the database but keeps the directory,
// for the recovery check.
func (in *instance) closeDB() error {
	for _, c := range in.clients {
		c.Close()
	}
	in.clients = nil
	if in.db == nil {
		return nil
	}
	err := in.db.Close()
	in.db = nil
	return err
}

func (in *instance) tearDown() {
	in.closeDB()
	os.RemoveAll(in.dir)
}

// worker is one client's state across the phases of a run.
type worker struct {
	spec    workerSpec
	ops     []op
	pos     int // ops consumed so far, over all phases
	c       *client.Client
	project map[opKind][]string
	projIdx map[opKind][]int

	// per-phase records
	reads, writes []int64 // latency of each answered request, ns
	lags          []int64 // open loop: how late an unblocked send left, ns
	attempted     int64
	failed        int64
	acked         int64 // inserts acknowledged, all phases
	kept          []keptAnswer
	firstErr      error
	spans         *spanBuf // nil unless the phase is traced

	predBuf []pred
	wireBuf []server.Predicate
}

type keptAnswer struct {
	op  *op
	got answer
}

// newWorkers pre-generates every worker's op stream, long enough for
// traffic of the given total length.
func newWorkers(wl *workload, ds *dataset, in *instance, seed int64, traffic time.Duration) []*worker {
	schema := tpcc.OrderLineSchema()
	ws := make([]*worker, len(wl.Workers))
	for i, spec := range wl.Workers {
		w := &worker{spec: spec, ops: genStream(ds, spec.Mix, seed, i, spec.streamLen(traffic)), c: in.clients[i],
			project: wl.Project, projIdx: map[opKind][]int{}}
		for k, names := range wl.Project {
			for _, n := range names {
				w.projIdx[k] = append(w.projIdx[k], schema.IndexOf(n))
			}
		}
		ws[i] = w
	}
	return ws
}

func (w *worker) resetPhase() {
	w.reads, w.writes, w.lags, w.kept = w.reads[:0], w.writes[:0], w.lags[:0], nil
	w.attempted, w.failed = 0, 0
}

func (w *worker) next() *op {
	o := &w.ops[w.pos%len(w.ops)]
	w.pos++
	return o
}

// send performs one op over the wire. For a read it returns the reply.
func (w *worker) send(o *op) (*server.Result, error) {
	if o.kind == opInsert {
		return nil, w.c.Insert(tableName, o.row())
	}
	w.predBuf = o.preds(w.predBuf)
	w.wireBuf = w.wireBuf[:0]
	for _, p := range w.predBuf {
		name := columnNames[p.col]
		if p.rng {
			w.wireBuf = append(w.wireBuf, client.Between(name, value.NewInt(p.lo), value.NewInt(p.hi)))
		} else {
			w.wireBuf = append(w.wireBuf, client.Eq(name, value.NewInt(p.lo)))
		}
	}
	return w.c.Select(tableName, w.wireBuf, w.project[o.kind]...)
}

// call performs one op in-process against the table API, the way the
// server's engine adapter does.
func (w *worker) call(ctx context.Context, tbl *tierdb.Table, o *op) (*tierdb.SelectResult, error) {
	if o.kind == opInsert {
		return nil, tbl.InsertCtx(ctx, o.row())
	}
	w.predBuf = o.preds(w.predBuf)
	ps := make([]tierdb.Predicate, len(w.predBuf))
	for i, p := range w.predBuf {
		if p.rng {
			ps[i] = tierdb.Predicate{Column: p.col, Op: exec.Between, Value: value.NewInt(p.lo), Hi: value.NewInt(p.hi)}
		} else {
			ps[i] = tierdb.Predicate{Column: p.col, Op: exec.Eq, Value: value.NewInt(p.lo)}
		}
	}
	return tbl.SelectCtx(ctx, nil, ps, w.project[o.kind]...)
}

var columnNames = func() []string {
	fields := tpcc.OrderLineSchema().Fields()
	names := make([]string, len(fields))
	for i, f := range fields {
		names[i] = f.Name
	}
	return names
}()

// phase says how a stretch of traffic is treated.
type phase struct {
	dur time.Duration
	// verifyAll checks every reply against the oracle on the spot (the
	// warm-up); otherwise one reply in sampleEvery is kept and checked
	// after the phase, outside the measurement.
	verifyAll bool
	ds        *dataset
	spans     *spanLog // non-nil: one client.rtt span per request
}

// latencyStart applies the open-loop timing rule: a request's latency
// starts at its due time when the worker was still waiting on its
// previous reply at that moment, and at the actual send otherwise. The
// second result is the generator's own lateness (0 when the worker was
// blocked: that wait is charged to the system, not the generator).
func latencyStart(due, prevDone, sent time.Time) (time.Time, time.Duration) {
	if prevDone.After(due) {
		return due, 0
	}
	return sent, sent.Sub(due)
}

// run drives the worker for one phase and returns when its last reply
// is in.
func (w *worker) run(ph phase, start time.Time) {
	end := start.Add(ph.dur)
	prevDone := start
	var root uint64
	if w.spans != nil {
		root = w.spans.open("pass1.worker", 0, start)
		defer func() { w.spans.finish(root, time.Now()) }()
	}
	for k := 0; ; k++ {
		var due time.Time
		if w.spec.Rate > 0 {
			// An open loop sends everything that falls due inside the
			// phase, however late: a backlog shows as latency and as a
			// lower achieved rate.
			due = start.Add(time.Duration(float64(k) / w.spec.Rate * float64(time.Second)))
			if due.After(end) {
				return
			}
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
		} else if !time.Now().Before(end) {
			return // a closed loop stops at the deadline
		}
		sent := time.Now()
		o := w.next()
		res, err := w.send(o)
		done := time.Now()
		w.attempted++
		if err != nil {
			// Overload and draining refusals count as failures like any
			// other error, and nothing is retried.
			w.failed++
			if w.firstErr == nil {
				w.firstErr = err
			}
			prevDone = done
			continue
		}
		from := sent
		if w.spec.Rate > 0 {
			var lag time.Duration
			from, lag = latencyStart(due, prevDone, sent)
			w.lags = append(w.lags, int64(lag))
		}
		prevDone = done
		lat := int64(done.Sub(from))
		if o.kind.isWrite() {
			w.acked++
			w.writes = append(w.writes, lat)
		} else {
			w.reads = append(w.reads, lat)
			switch {
			case ph.verifyAll:
				got := summarize(len(res.IDs), res.Rows, w.projIdx[o.kind])
				if m := mismatch(got, ph.ds.expect(o, w.projIdx[o.kind])); m != "" && w.firstErr == nil {
					w.firstErr = fmt.Errorf("wrong answer to %+v: %s", *o, m)
				}
			case len(w.reads)%sampleEvery == 1:
				w.kept = append(w.kept, keptAnswer{op: o, got: summarize(len(res.IDs), res.Rows, w.projIdx[o.kind])})
			}
		}
		if w.spans != nil {
			name := "client.rtt.select"
			if o.kind.isWrite() {
				name = "client.rtt.insert"
			}
			w.spans.add(name, root, sent, done, 1)
		}
	}
}

// spent is what a phase took: wall time until the last reply was in,
// and the process's CPU time (user+sys) over the same stretch.
type spent struct{ wall, cpu time.Duration }

func cpuTime() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail with these arguments
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runPhase runs every worker for the phase and makes the given number
// of MergeAsync calls during it.
func runPhase(in *instance, ws []*worker, ph phase, merges int) (spent, error) {
	for _, w := range ws {
		w.resetPhase()
		w.spans = nil
		if ph.spans != nil {
			w.spans = ph.spans.buffer()
		}
	}
	start, cpu := time.Now(), cpuTime()
	stop := make(chan struct{})
	merged := make(chan error, 1)
	go func() {
		for i := 0; i < merges; i++ {
			// At 5 %, 35 % and 65 % of the phase. A merge of the loaded
			// table plus its checkpoint takes 2-2.5 s, so in a 10 s
			// window each cycle has finished before the next is due and
			// the last one a second before the end: how many cycles the
			// window holds does not depend on the machine's mood.
			at := start.Add(ph.dur * time.Duration(5+30*i) / 100)
			select {
			case <-time.After(time.Until(at)):
			case <-stop:
				merged <- nil
				return
			}
			// The scheduler folds the delta and then takes the
			// product's own post-merge checkpoint.
			if err := in.tbl.MergeAsync(); err != nil {
				merged <- fmt.Errorf("MergeAsync: %w", err)
				return
			}
		}
		merged <- nil
	}()
	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			w.run(ph, start)
		}(w)
	}
	wg.Wait()
	took := spent{time.Since(start), cpuTime() - cpu}
	lastTraffic = time.Now()
	close(stop)
	return took, <-merged
}

// lastTraffic is when a phase of this process last ended.
var lastTraffic time.Time

// settle waits until what earlier traffic of this process left on the
// heap is gone. client.Client arms a time.After(RequestTimeout) for
// every request, and with the timers of the module's go 1.22 such a
// timer and its channel live until they fire, 30 s later: an oltp_point
// window leaves 90 MB behind, which die during the next workload's
// set-up and window and would be missing from its heap_mb_loaded. The
// first run of a process, and so every run the driver makes, waits for
// nothing.
func settle() {
	time.Sleep(time.Until(lastTraffic.Add(client.DefaultRequestTimeout + time.Second)))
}

// checkKept compares the replies kept during a phase with the oracle.
func checkKept(ws []*worker, ds *dataset, r *result) {
	for _, w := range ws {
		for _, k := range w.kept {
			if m := mismatch(k.got, ds.expect(k.op, w.projIdx[k.op.kind])); m != "" {
				r.problem("wrong answer to %+v: %s", *k.op, m)
			}
		}
	}
}

// checkStreams fails a run in which a worker used up its pre-generated
// ops and started over: it then sent requests a second time.
func checkStreams(ws []*worker, r *result) {
	for _, w := range ws {
		if w.pos > len(w.ops) {
			r.problem("a worker used up its %d pre-generated ops: closedLoopMaxRate is too low for this machine", len(w.ops))
		}
	}
}

// usage is what the process has consumed so far, in the two currencies
// that are counted rather than timed.
type usage struct {
	mallocs uint64
	modeled time.Duration
}

func snapshotUsage(db *tierdb.DB) usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{mallocs: ms.Mallocs, modeled: db.Clock().Elapsed()}
}

func heapAlloc() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

const mb = 1 << 20

// runUntraced is one end-to-end run of a workload: set-up, warm-up with
// every answer verified, the measured window, the checks, and for the
// WAL workloads a close, reopen and recount.
func runUntraced(wl *workload, ds *dataset, opt options) (*result, error) {
	r := &result{Workload: wl.Name, Seed: opt.seed, Correct: true, Metrics: map[string]metric{}}
	if !opt.smoke {
		settle()
	}
	ds.loadRows() // generated outside the set-up time and the heap figure
	heapBefore := heapAlloc()
	in, err := setUp(wl, ds, opt)
	if err != nil {
		return nil, err
	}
	defer in.tearDown()
	// One set-up per run: the three a median needs would leave the
	// driver's 92 runs no room under its time cap, and what moves a
	// five-second set-up on a shared machine lasts minutes.
	r.set("setup_s", in.setup.Seconds(), "s")
	// Go heap the loaded table holds on to: real DRAM beside the
	// modeled dram_mb.
	r.set("heap_mb_loaded", (heapAlloc()-heapBefore)/mb, "MB")
	r.set("dram_mb", float64(in.tbl.MemoryBytes())/mb, "MB")
	r.set("secondary_mb", float64(in.tbl.SecondaryBytes())/mb, "MB")
	ws := newWorkers(wl, ds, in, opt.seed, opt.warmup()+opt.window)
	ds.dropRows()

	if _, err := runPhase(in, ws, phase{dur: opt.warmup(), verifyAll: true, ds: ds}, 0); err != nil {
		return nil, err
	}
	for _, w := range ws {
		if w.firstErr != nil {
			return nil, fmt.Errorf("%s warm-up: %w", wl.Name, w.firstErr)
		}
	}

	before := snapshotUsage(in.db)
	took, err := runPhase(in, ws, phase{dur: opt.window, ds: ds}, wl.Merges)
	if err != nil {
		return nil, err
	}
	after := snapshotUsage(in.db)

	var reads, writes []int64
	var acked int64
	for _, w := range ws {
		r.Attempted += w.attempted
		r.Failed += w.failed
		acked += w.acked
		reads = append(reads, w.reads...)
		writes = append(writes, w.writes...)
		if w.firstErr != nil {
			r.problem("request failed: %v", w.firstErr)
		}
	}
	ok := float64(len(reads) + len(writes))
	if ok == 0 {
		return nil, fmt.Errorf("%s: no request succeeded (first error: %v)", wl.Name, ws[0].firstErr)
	}
	r.set("error_frac", float64(r.Failed)/float64(r.Attempted), "1")
	r.set("allocs_per_op", float64(after.mallocs-before.mallocs)/ok, "count")
	r.set("modeled_us_per_op", float64(after.modeled-before.modeled)/1e3/ok, "us")
	windowMetrics(r, took, reads, writes)
	// An open loop that cannot keep its pace is not measuring what it
	// says. (A smoke run's window is too short for a 1 % rule: one
	// scheduling hiccup at its end is more than that.)
	if offered, achieved := wl.offered(), r.Metrics["ops_per_s"].Value; !opt.smoke && achieved < 0.99*offered {
		r.problem("achieved %.1f ops/s of %.0f offered: the open loop fell behind", achieved, offered)
	}
	// The ledger says which workload answers for which metric: the
	// tails of htap_mixed move 15-40 % between identical runs and are
	// reported as diagnostics by the traced run instead.
	for name := range r.Metrics {
		if d, ok := defByName(name); !ok || !d.appliesTo(wl.Name) {
			delete(r.Metrics, name)
		}
	}

	checkKept(ws, ds, r)
	checkStreams(ws, r)
	want := in.loaded + int(acked)
	if got, err := in.clients[0].Rows(tableName); err != nil {
		r.problem("row count: %v", err)
	} else if got != want {
		r.problem("table holds %d rows, want %d loaded + %d acknowledged inserts", got, in.loaded, acked)
	}
	if err := in.closeDB(); err != nil {
		r.problem("close: %v", err)
	}
	if wl.WAL {
		recoverAndCount(in, want, r)
	}
	return r, nil
}

var percentiles = []struct {
	name string
	q    float64
}{{"p50", 0.50}, {"p95", 0.95}}

// windowMetrics reports the rate, the CPU cost and the latencies of the
// measured window, all of it: requests answered without error over the
// time until the last reply, and percentiles over every sample. A stall
// anywhere in the window counts.
func windowMetrics(r *result, took spent, reads, writes []int64) {
	ops := float64(len(reads) + len(writes))
	r.set("ops_per_s", ops/took.wall.Seconds(), "1/s")
	r.set("cpu_us_per_op", float64(took.cpu)/1e3/ops, "us")
	for _, class := range []struct {
		name string
		lat  []int64
	}{{"read", reads}, {"write", writes}} {
		slices.Sort(class.lat)
		for _, p := range percentiles {
			if v, ok := percentile(class.lat, p.q); ok {
				r.Metrics[class.name+"_"+p.name+"_us"] = metric{Value: float64(v) / 1e3, Unit: "us", N: len(class.lat)}
			}
		}
	}
}

// recoverAndCount reopens the closed database from its WAL directory,
// times Open until ready, and checks that every acknowledged row
// survived.
func recoverAndCount(in *instance, want int, r *result) {
	start := time.Now()
	db, err := tierdb.Open(in.wl.config(in.dir))
	took := time.Since(start)
	if err != nil {
		r.problem("reopen: %v", err)
		return
	}
	defer db.Close()
	tbl, err := db.Table(tableName)
	if err != nil {
		r.problem("reopen: %v", err)
		return
	}
	if got := tbl.Rows(); got != want {
		r.problem("%d rows after recovery, want %d", got, want)
	}
	// Per row, so that a faster insert path is not charged for the
	// longer log it leaves behind.
	r.set("recovery_us_per_row", float64(took.Microseconds())/float64(want), "us")
}
