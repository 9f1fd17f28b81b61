// Package exec implements query execution over tiered tables following
// the paper's model (Section II-B): filters run via indexes when
// available; remaining filters are ordered first by location
// (DRAM-resident before tiered) and second by increasing selectivity;
// successive predicates receive position lists; and the executor
// switches from scanning to probing as soon as the fraction of
// qualifying tuples falls below a threshold (default 0.01 % of the
// table). DRAM-side costs are charged to a virtual clock; secondary-
// storage costs flow through the table's timed page store.
package exec

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"time"

	"tierdb/internal/column"
	"tierdb/internal/delta"
	"tierdb/internal/device"
	"tierdb/internal/dict"
	"tierdb/internal/metrics"
	"tierdb/internal/mvcc"
	"tierdb/internal/storage"
	"tierdb/internal/table"
	"tierdb/internal/trace"
	"tierdb/internal/value"
)

// Op is a predicate operator.
type Op int

const (
	// Eq is an equality predicate (column = value).
	Eq Op = iota
	// Between is an inclusive range predicate (lo <= column <= hi).
	Between
)

// Predicate is one conjunctive filter of a query.
type Predicate struct {
	// Column indexes the table schema.
	Column int
	// Op selects the comparison.
	Op Op
	// Value is the equality operand or range lower bound.
	Value value.Value
	// Hi is the inclusive range upper bound (Between only).
	Hi value.Value
}

// Query is a conjunctive filter-and-project query.
type Query struct {
	// Predicates are combined with AND.
	Predicates []Predicate
	// Project lists the columns to materialize for each qualifying
	// row; empty means positions only.
	Project []int
}

// Result carries qualifying row ids and, if requested, their projected
// values.
type Result struct {
	IDs  []table.RowID
	Rows [][]value.Value
}

// Options tunes the executor.
type Options struct {
	// Clock accumulates modeled DRAM-side execution time; nil disables
	// DRAM cost accounting.
	Clock *storage.Clock
	// ProbeThreshold is the qualifying fraction below which the
	// executor probes instead of scanning tiered columns (paper:
	// 0.01 % = 0.0001). Zero selects the default.
	ProbeThreshold float64
	// Parallelism is the number of workers the main-partition scans,
	// probes and materialization are spread over; values <= 1 mean one
	// worker, which runs its morsels inline on the calling goroutine
	// (no goroutine is started). Every level runs the same pipeline and
	// returns byte-identical results.
	Parallelism int
	// MorselRows is the number of main-partition rows per scan morsel,
	// rounded up to a multiple of 64; zero selects DefaultMorselRows.
	// SSCG scan morsels are additionally aligned to page boundaries.
	MorselRows int
	// Registry receives executor metrics (access-path counts, scan-to-
	// probe switchovers, morsels, rows, modeled DRAM time). Nil runs
	// unmetered at zero cost.
	Registry *metrics.Registry
	// TraceRing, when set, makes every query (Run and RunTracedCtx
	// alike) capture a full metrics.Trace with its wall-clock duration
	// into the ring — the feed of the observability server's /traces
	// endpoint. Nil disables capture; Run then carries no trace at all.
	TraceRing *metrics.TraceRing
	// SlowRing additionally receives queries whose wall-clock duration
	// reaches SlowQueryThreshold (the slow-query log). Requires
	// TraceRing-style capture to be meaningful but works standalone.
	SlowRing *metrics.TraceRing
	// SlowQueryThreshold gates SlowRing; 0 disables the slow-query log.
	SlowQueryThreshold time.Duration
}

// DefaultProbeThreshold is the paper's scan-to-probe switch point.
const DefaultProbeThreshold = 0.0001

// DefaultDRAMTouch is the modeled cost of one dependent random DRAM
// access (a cache miss).
const DefaultDRAMTouch = 60 * time.Nanosecond

// Executor runs queries against one table.
type Executor struct {
	tbl         *table.Table
	clock       *storage.Clock
	threshold   float64
	parallelism int
	morselRows  int
	recent      *metrics.TraceRing
	slow        *metrics.TraceRing
	slowThresh  time.Duration
	m           execInstruments
	// pool holds the scratch of finished queries for the next ones.
	pool sync.Pool
}

// execInstruments holds the executor's registry handles, resolved once
// at construction so the hot paths pay only an atomic add (or nothing:
// every handle is nil when the registry is nil, and instrument methods
// are no-ops on nil receivers).
type execInstruments struct {
	queries          *metrics.Counter
	parallelQueries  *metrics.Counter
	indexLookups     *metrics.Counter
	mrcScans         *metrics.Counter
	mrcProbes        *metrics.Counter
	sscgScans        *metrics.Counter
	sscgProbes       *metrics.Counter
	switchovers      *metrics.Counter
	morsels          *metrics.Counter
	rowsQualified    *metrics.Counter
	rowsScanned      *metrics.Counter
	rowsMaterialized *metrics.Counter
	dramNs           *metrics.Counter
	dramScanBytes    *metrics.Counter
	slowQueries      *metrics.Counter
	tracesCaptured   *metrics.Counter
	selSamples       *metrics.Counter
	misestimate      *metrics.Histogram
	wallNs           *metrics.Histogram
}

// newExecInstruments resolves the executor's instruments from r (all
// nil for a nil registry).
func newExecInstruments(r *metrics.Registry) execInstruments {
	return execInstruments{
		queries:          r.Counter("exec.queries"),
		parallelQueries:  r.Counter("exec.queries.parallel"),
		indexLookups:     r.Counter("exec.path.index_lookups"),
		mrcScans:         r.Counter("exec.path.mrc_scans"),
		mrcProbes:        r.Counter("exec.path.mrc_probes"),
		sscgScans:        r.Counter("exec.path.sscg_scans"),
		sscgProbes:       r.Counter("exec.path.sscg_probes"),
		switchovers:      r.Counter("exec.switch.scan_to_probe"),
		morsels:          r.Counter("exec.morsels"),
		rowsQualified:    r.Counter("exec.rows.qualified"),
		rowsScanned:      r.Counter("exec.rows.scanned"),
		rowsMaterialized: r.Counter("exec.rows.materialized"),
		dramNs:           r.Counter("exec.dram_ns"),
		dramScanBytes:    r.Counter("exec.dram.scan_bytes"),
		slowQueries:      r.Counter("exec.slow_queries"),
		tracesCaptured:   r.Counter("obs.traces_captured"),
		selSamples:       r.Counter("selectivity.samples"),
		misestimate:      r.Histogram("selectivity.misestimate", metrics.MisestimateBuckets()),
		wallNs:           r.Histogram("exec.wall_ns", metrics.IOLatencyBuckets()),
	}
}

// New builds an executor for tbl.
func New(tbl *table.Table, opts Options) *Executor {
	if opts.ProbeThreshold == 0 {
		opts.ProbeThreshold = DefaultProbeThreshold
	}
	if opts.Parallelism < 1 {
		opts.Parallelism = 1
	}
	if opts.MorselRows < 1 {
		opts.MorselRows = DefaultMorselRows
	}
	return &Executor{
		tbl:         tbl,
		clock:       opts.Clock,
		threshold:   opts.ProbeThreshold,
		parallelism: opts.Parallelism,
		morselRows:  (opts.MorselRows + 63) &^ 63,
		recent:      opts.TraceRing,
		slow:        opts.SlowRing,
		slowThresh:  opts.SlowQueryThreshold,
		m:           newExecInstruments(opts.Registry),
		pool:        sync.Pool{New: func() any { return newScratch(opts.Parallelism) }},
	}
}

// Parallelism returns the configured worker count (1 = inline).
func (e *Executor) Parallelism() int { return e.parallelism }

// charge adds modeled DRAM time to the clock and the exec.dram_ns
// counter.
func (e *Executor) charge(d time.Duration) {
	if d <= 0 {
		return
	}
	if e.clock != nil {
		e.clock.Advance(d)
	}
	e.m.dramNs.Add(int64(d))
}

// chargeTouches charges n dependent DRAM accesses.
func (e *Executor) chargeTouches(n int) {
	if n > 0 {
		e.charge(time.Duration(n) * DefaultDRAMTouch)
	}
}

// Run executes q at the transaction's snapshot (tx may be nil for a
// read at the latest snapshot). When a trace ring is configured, the
// query is captured exactly like RunTracedCtx.
func (e *Executor) Run(q Query, tx *mvcc.Tx) (*Result, error) {
	return e.RunCtx(context.Background(), q, tx)
}

// RunCtx is Run with a context. A sampled request span carried by ctx
// (see tierdb/internal/trace) gets an "exec.query" child whose
// children mirror the executed operators — one span per filter
// application and per materialize/visibility pass, with morsel fan-out
// recorded as an attribute.
func (e *Executor) RunCtx(ctx context.Context, q Query, tx *mvcc.Tx) (*Result, error) {
	if e.recent == nil && e.slow == nil && trace.FromContext(ctx) == nil {
		return e.run(ctx, q, tx, nil)
	}
	res, _, err := e.RunTracedCtx(ctx, q, tx)
	return res, err
}

// RunTracedCtx is RunCtx with per-query tracing: the returned Trace
// records the filter ordering chosen, per-operator access paths
// (including scan-to-probe switchovers), morsels per worker, rows
// qualified and the modeled cost split per device, all of it this
// query's own; the trace is partially filled when an error is returned.
// When trace rings are configured, the trace also enters the recent ring
// (and the slow ring if the wall-clock duration reaches the slow-query
// threshold). See RunCtx for the span family a sampled request span
// receives.
func (e *Executor) RunTracedCtx(ctx context.Context, q Query, tx *mvcc.Tx) (*Result, *metrics.Trace, error) {
	t := e.newTrace()
	tr := &t.trace
	span := trace.FromContext(ctx).Child("exec.query", trace.String("table", e.tbl.Name()))
	start := time.Now()
	if span != nil {
		// Anchor operator intervals at the span's own start so children
		// never precede their parent by a clock read.
		tr.StartNs = span.StartNs
	} else {
		tr.StartNs = start.UnixNano()
	}
	res, err := e.run(ctx, q, tx, tr)
	e.capture(t, start, time.Since(start), err, span)
	emitSpans(span, tr, err)
	return res, tr, err
}

// emitSpans converts a finished query's operator intervals into child
// spans of the request trace and closes the "exec.query" span. No-op
// on a nil (unsampled) span.
func emitSpans(span *trace.Span, tr *metrics.Trace, err error) {
	if span == nil {
		return
	}
	for i := range tr.Operators {
		op := &tr.Operators[i]
		attrs := make([]trace.Attr, 0, 5)
		attrs = append(attrs,
			trace.String("partition", op.Partition),
			trace.Int("rows_in", int64(op.RowsIn)),
			trace.Int("rows_out", int64(op.RowsOut)))
		if op.Path != "" {
			attrs = append(attrs, trace.String("path", op.Path))
		}
		if op.Morsels > 0 {
			attrs = append(attrs, trace.Int("morsels", int64(op.Morsels)))
		}
		span.ChildAt("exec."+op.Name, op.StartNs, op.EndNs, attrs...)
	}
	span.SetAttr(
		trace.Int("rows", int64(tr.RowsQualified)),
		trace.Int("dram_ns", tr.DRAMNs),
		trace.Int("device_ns", tr.DeviceNs))
	span.SetError(err)
	span.End()
}

// Explain plans q exactly as Run would — the same validation, binding,
// selectivity estimates and filter order — without executing anything.
// The returned trace carries that order in Predicates and the operators
// the plan predicts in Operators: the run's own decision (operatorFor)
// fed the running product of the estimates where the run feeds the
// candidate fraction it observed, so they carry no intervals, row counts
// or page reads. Plan-only introspection must not disturb the engine, so
// nothing is charged, captured or recorded.
func (e *Executor) Explain(q Query) (*metrics.Trace, error) {
	v := e.tbl.Pin()
	defer v.Release()
	steps, err := e.plan(v, q, nil)
	if err != nil {
		return nil, err
	}
	tr := &e.newTrace().trace
	fraction := 1.0
	for i := range steps {
		s := &steps[i]
		tr.Predicate(s.trace())
		_, op := s.operatorFor(i == 0, fraction, e.threshold)
		if !op.SwitchedToProbe {
			// An estimate that did not change the path is not reported.
			op.CandidateFraction = 0
		}
		tr.Operators = append(tr.Operators, op)
		fraction *= s.sel
	}
	if len(q.Project) > 0 {
		tr.Operators = append(tr.Operators, metrics.OperatorTrace{Name: "materialize", Partition: "main", Column: -1})
	}
	return tr, nil
}

// traced is what tracing one query allocates, as one object: the trace,
// with room for a typical plan's predicates and operators, and the
// entry that publishes it to the recent ring.
type traced struct {
	entry metrics.TraceEntry
	trace metrics.Trace
	preds [4]metrics.PredicateTrace
	ops   [8]metrics.OperatorTrace
}

// newTrace opens a trace carrying the executor's settings.
func (e *Executor) newTrace() *traced {
	t := &traced{}
	t.trace = metrics.Trace{
		Table:          e.tbl.Name(),
		Parallelism:    e.parallelism,
		ProbeThreshold: e.threshold,
		Predicates:     t.preds[:0],
		Operators:      t.ops[:0],
	}
	if timed, ok := e.tbl.Store().(*storage.TimedStore); ok {
		t.trace.Device = timed.Profile().Name
	}
	return t
}

// capture publishes a finished query's trace into the recent ring and,
// past the slow-query threshold, the slow ring. No-op without rings.
func (e *Executor) capture(t *traced, start time.Time, wall time.Duration, err error, span *trace.Span) {
	if e.recent == nil && e.slow == nil {
		return
	}
	e.m.wallNs.Observe(int64(wall))
	entry := &t.entry
	*entry = metrics.TraceEntry{UnixNano: start.UnixNano(), WallNs: int64(wall), Trace: &t.trace}
	if span != nil {
		entry.TraceID = span.Trace.String()
	}
	if err != nil {
		entry.Err = err.Error()
	}
	e.recent.Add(entry)
	e.m.tracesCaptured.Inc()
	if e.slow != nil && e.slowThresh > 0 && wall >= e.slowThresh {
		// A fresh entry: each ring stamps its own sequence number.
		slowEntry := *entry
		e.slow.Add(&slowEntry)
		e.m.slowQueries.Inc()
	}
}

// observeSelectivity folds the measured qualifying fraction of one
// main-partition predicate application (rows out of rows in) into the
// column's EWMA on the table, and scores the plan's estimate in the
// selectivity.misestimate histogram (milli-nats of |ln(obs/est)|).
// A zero-match application is clamped to half a row so the log ratio
// and the EWMA stay finite and model-valid.
func (e *Executor) observeSelectivity(s *step, in, out int) {
	if in <= 0 {
		return
	}
	f := float64(out) / float64(in)
	if out == 0 {
		f = 1 / float64(2*in)
	}
	e.tbl.RecordObservedSelectivity(s.pred.Column, f)
	e.m.selSamples.Inc()
	if s.sel > 0 {
		e.m.misestimate.Observe(int64(math.Abs(math.Log(f/s.sel)) * 1000))
	}
}

// run executes q, filling tr in when non-nil. A cancelled ctx stops the
// query at the next unit of work.
func (e *Executor) run(ctx context.Context, q Query, tx *mvcc.Tx, tr *metrics.Trace) (*Result, error) {
	// Pin the table's structure for the whole query: an online merge
	// swapping the main partition mid-query cannot tear the reads, and
	// the epoch reference keeps the pinned SSCG's pages allocated until
	// Release. Outside a transaction the snapshot is read with the pin
	// (see table.Table.PinLatest). The plan binds to the same pinned
	// structure; a query it rejects has had no effect.
	var v *table.View
	var snapshot mvcc.Timestamp
	var self mvcc.TxID
	if tx != nil {
		v, snapshot, self = e.tbl.Pin(), tx.Snapshot(), tx.ID()
	} else {
		v, snapshot = e.tbl.PinLatest()
	}
	defer v.Release()
	// One worker set serves the filters and the materialization, and the
	// plan's steps live beside it, where the regions read them; the
	// query's modeled cost reaches the clocks and the trace in settle.
	sc := e.scratchFor(ctx, v, reader{v.MainVersions(), snapshot, self})
	defer e.pool.Put(sc)
	defer sc.retire()
	steps, err := e.plan(v, q, sc.steps[:0])
	if err != nil {
		return nil, err
	}
	sc.steps = steps
	e.m.queries.Inc()
	for i := range steps {
		tr.Predicate(steps[i].trace())
	}
	res, err := e.runPinned(v, sc, steps, q.Project, tr)
	e.settle(sc, tr)
	if err != nil {
		return nil, err
	}
	e.m.rowsQualified.Add(int64(len(res.IDs)))
	if tr != nil {
		tr.RowsQualified = len(res.IDs)
	}
	return res, nil
}

// reader is who a query reads as: the main partition's version store
// and the (snapshot, transaction) every row is judged by. The zero
// reader sees everything (a scan filters nothing for it).
type reader struct {
	versions *mvcc.Versions
	snapshot mvcc.Timestamp
	self     mvcc.TxID
}

// runPinned filters both partitions of the pinned view, assembles the
// RowIDs (main first, then delta offset by the main row count) and
// materializes the projection. The main positions live in sc and are
// copied into the Result here, before sc goes back to the pool.
func (e *Executor) runPinned(v *table.View, sc *scratch, steps []step, project []int, tr *metrics.Trace) (*Result, error) {
	mainIDs, err := e.runMain(v, sc, steps, tr)
	if err != nil {
		return nil, err
	}
	deltaIDs, err := runDelta(v, sc, steps, sc.r.vis.snapshot, sc.r.vis.self, tr)
	if err != nil {
		return nil, err
	}
	res := &Result{IDs: make([]table.RowID, 0, len(mainIDs)+len(deltaIDs))}
	for _, p := range mainIDs {
		res.IDs = append(res.IDs, table.RowID(p))
	}
	mainRows := uint64(v.MainRows())
	for _, p := range deltaIDs {
		res.IDs = append(res.IDs, mainRows+uint64(p))
	}
	if len(project) > 0 {
		if err := e.materialize(v, sc, res, project, tr); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// opName renders a predicate operator for traces.
func opName(op Op) string {
	if op == Between {
		return "between"
	}
	return "eq"
}

// accessPath ranks where a predicate's column can be filtered, in the
// order the paper runs filters: through an index, on a DRAM-resident
// column, on a tiered one.
type accessPath int

const (
	pathIndex accessPath = iota
	pathMRC
	pathSSCG
)

func (p accessPath) String() string {
	return [...]string{"index", "mrc", "sscg"}[p]
}

// step is one predicate of a validated query bound to the pinned view:
// everything the run, the trace and EXPLAIN need to know about it is
// decided here, once.
type step struct {
	pred Predicate
	// query is the predicate's position in the caller's query.
	query int
	// path is the rank the filter order used.
	path accessPath
	// index is the column's group-key index (nil without one); mrc its
	// DRAM-resident column, or nil when the column is tiered and field
	// is its position within the SSCG.
	index *dict.Index
	mrc   *column.MRC
	field int
	// lo and hi are the predicate's code range on mrc, bound once: a
	// kernel compares codes, and the zones of every DRAM conjunct decide
	// which rows a full scan reads.
	lo, hi uint32
	// sel is the estimated qualifying fraction, read from the pinned
	// view's statistics.
	sel float64
}

// trace renders the step's place in the filter order.
func (s *step) trace() metrics.PredicateTrace {
	return metrics.PredicateTrace{
		Query:                s.query,
		Column:               s.pred.Column,
		Op:                   opName(s.pred.Op),
		Path:                 s.path.String(),
		EstimatedSelectivity: s.sel,
	}
}

// plan validates q and turns its predicates into the steps the query
// runs, appended to buf: every column index in range, every operator
// known and every operand of its column's type — whatever path the
// predicate ends up on, so no kernel, index or delta lookup ever
// compares across types; each predicate bound to the pinned view's
// index, MRC or SSCG field; its selectivity estimated from the view's
// statistics (1/distinct for equality, the equi-depth histogram for
// ranges — Section III-A: "distinct counts and histograms"); and the
// steps ordered as the paper prescribes: indexed first, then
// DRAM-resident by ascending selectivity, then tiered by ascending
// selectivity. The caller's slice is never reordered.
func (e *Executor) plan(v *table.View, q Query, buf []step) ([]step, error) {
	sch := e.tbl.Schema()
	for _, c := range q.Project {
		if c < 0 || c >= sch.Len() {
			return nil, fmt.Errorf("exec: projected column %d out of range (%d)", c, sch.Len())
		}
	}
	steps := buf
	for i, p := range q.Predicates {
		if p.Column < 0 || p.Column >= sch.Len() {
			return nil, fmt.Errorf("exec: predicate column %d out of range (%d)", p.Column, sch.Len())
		}
		typ := sch.Field(p.Column).Type
		if p.Value.Type() != typ {
			return nil, fmt.Errorf("exec: predicate on column %d has type %s, want %s", p.Column, p.Value.Type(), typ)
		}
		s := step{pred: p, query: i, path: pathSSCG, index: v.Index(p.Column), mrc: v.MRC(p.Column), field: v.GroupField(p.Column)}
		switch {
		case s.index != nil:
			s.path = pathIndex
		case s.mrc != nil:
			s.path = pathMRC
		}
		if s.mrc == nil && (v.Group() == nil || s.field < 0) {
			return nil, fmt.Errorf("exec: column %d has no storage (internal layout error)", p.Column)
		}
		hi := p.Hi // an equality is the range [v, v]
		switch p.Op {
		case Eq:
			s.sel, hi = v.Selectivity(p.Column), p.Value
		case Between:
			if p.Hi.Type() != typ {
				return nil, fmt.Errorf("exec: range bound on column %d has type %s, want %s", p.Column, p.Hi.Type(), typ)
			}
			s.sel = v.RangeSelectivity(p.Column, p.Value, p.Hi)
		default:
			return nil, fmt.Errorf("exec: unknown operator %d", p.Op)
		}
		if s.mrc != nil {
			s.lo, s.hi = s.mrc.CodeRange(p.Value, hi)
		}
		steps = append(steps, s)
	}
	slices.SortStableFunc(steps, func(a, b step) int {
		return cmp.Or(cmp.Compare(a.path, b.path), cmp.Compare(a.sel, b.sel))
	})
	return steps, nil
}

// kernel names the five main-partition kernels a step can run, and the
// two a query runs without a step.
type kernel int

const (
	kernelIndex kernel = iota
	kernelScanMRC
	kernelProbeMRC
	kernelScanSSCG
	kernelProbeSSCG
	kernelVisible
	kernelMaterialize
)

// operatorFor is the executor's one access decision (Section III-A):
// the first step goes through its index when it has one and scans its
// column otherwise; a later step probes the candidate list — always, on
// a DRAM column, where a dependent access per candidate beats
// re-scanning; on a tiered column only once the candidate fraction has
// fallen to the probe threshold, the paper's scan-to-probe switchover,
// and by another scan of the group until then. The run passes the
// fraction it observed, Explain the product of the estimates so far;
// the returned record is the operator's description in either trace.
func (s *step) operatorFor(first bool, fraction, threshold float64) (kernel, metrics.OperatorTrace) {
	op := metrics.OperatorTrace{Name: "scan", Partition: "main", Path: "sscg", Column: s.pred.Column}
	if s.mrc == nil && !first {
		op.CandidateFraction = fraction
	}
	switch {
	case first && s.index != nil:
		op.Name, op.Path = "index", "index"
		return kernelIndex, op
	case first && s.mrc != nil:
		op.Path = "mrc"
		return kernelScanMRC, op
	case s.mrc != nil:
		op.Name, op.Path = "probe", "mrc"
		return kernelProbeMRC, op
	case first || fraction > threshold:
		return kernelScanSSCG, op
	default:
		op.Name, op.SwitchedToProbe = "probe", true
		return kernelProbeSSCG, op
	}
}

// book records an executed main-partition operator with what every
// operator reports the same way: the morsels handed out and the device
// pages read since the tally marks morsels and reads, and, through tr.Op,
// its wall-clock interval. It returns the new marks.
func book(sc *scratch, tr *metrics.Trace, op metrics.OperatorTrace, morsels, reads int64) (int64, int64) {
	m, r := tally(sc.ws)
	op.Morsels, op.PageReads = int(m-morsels), r-reads
	tr.Op(op)
	return m, r
}

// runMain evaluates the plan's steps over the main partition and
// returns qualifying main-row positions in ascending order, in sc.cand.
func (e *Executor) runMain(v *table.View, sc *scratch, steps []step, tr *metrics.Trace) ([]uint32, error) {
	mainRows := v.MainRows()
	if mainRows == 0 {
		return nil, nil
	}
	if len(steps) == 0 {
		// No predicates: all visible rows qualify.
		morsels, reads := tally(sc.ws)
		sc.r.kernel = kernelVisible
		var err error
		if sc.cand, err = sc.collect(morselCount(mainRows, e.morselRows), sc.cand); err != nil {
			return nil, err
		}
		e.m.rowsScanned.Add(int64(mainRows))
		book(sc, tr, metrics.OperatorTrace{Name: "visible", Partition: "main", Column: -1, RowsIn: mainRows, RowsOut: len(sc.cand)}, morsels, reads)
		return sc.cand, nil
	}
	sc.admitted = mainRows
	if steps[0].index == nil {
		sc.admitted = sc.admit(steps, mainRows)
	}
	for i := 0; i < len(steps); {
		n, err := e.apply(v, sc, steps[i:], i == 0, tr)
		if err != nil || len(sc.cand) == 0 {
			return nil, err
		}
		i += n
	}
	return sc.cand, nil
}

// apply evaluates steps[0] over the main partition as one region,
// narrowing the candidate list in sc.cand (empty before the first step):
// it asks operatorFor which kernel runs, given the candidate fraction
// observed so far, and sets the region up for it. A first step that
// scans an MRC takes the MRC probes after it into its region — each
// morsel runs through the whole chain before the next — and each of them
// is still booked as its own operator, with its own rows and selectivity
// sample, the region's morsels and page reads going to the scan. apply
// returns the number of steps it ran.
func (e *Executor) apply(v *table.View, sc *scratch, steps []step, first bool, tr *metrics.Trace) (int, error) {
	r, s := &sc.r, &steps[0]
	k, op := s.operatorFor(first, float64(len(sc.cand))/float64(r.rows), e.threshold)
	op.RowsIn = len(sc.cand)
	if first {
		op.RowsIn = sc.admitted
	}
	// The step's selectivity sample is its matches out of the in rows the
	// kernel looked at; matched counts an SSCG scan's matches before they
	// are intersected with the candidates.
	in, matched, chain := op.RowsIn, 0, 1
	for k == kernelScanMRC && chain < len(steps) && steps[chain].mrc != nil {
		chain++
	}
	r.kernel, r.cand, r.steps = k, sc.cand, steps[:chain]
	sc.outs = append(sc.outs[:0], make([]int64, chain-1)...)
	morsels, reads := tally(sc.ws)
	out, err := sc.cand, error(nil)
	switch k {
	case kernelIndex:
		// Always DRAM-resident.
		e.m.indexLookups.Inc()
		out = indexLookup(sc, s.index, s.pred, sc.cand, r.vis)
	case kernelScanMRC:
		// Full scan on the compressed DRAM column, fused with the MRC
		// probes that follow it.
		e.m.mrcScans.Inc()
		e.m.rowsScanned.Add(int64(sc.admitted))
		e.m.dramScanBytes.Add(s.mrc.Bytes() * int64(sc.admitted) / int64(r.rows))
		out, err = sc.collect(sc.scanUnits(e.morselRows), sc.cand)
		// The workers stream the admitted share of the column's bytes as
		// p balanced concurrent streams, whichever worker ran which
		// morsel: one stream's time, latency included, for the region.
		p := len(sc.ws)
		share := float64(sc.admitted) / float64(r.rows)
		sc.dram += device.DRAM.SequentialReadTime(int64(share*float64(s.mrc.Bytes())/float64(p)), p)
	case kernelProbeMRC:
		// One dependent access per candidate, chunk-wise.
		e.m.mrcProbes.Inc()
		e.m.rowsScanned.Add(int64(len(sc.cand)))
		out, err = sc.collect(chunkCount(len(sc.cand), len(sc.ws)), sc.cand)
	case kernelScanSSCG:
		// Scan the group's admitted rows (reads their pages) in morsels
		// aligned to page boundaries, so no page is read twice (two
		// stretches of one morsel lie a rejected zone, at least a page,
		// apart). The matches go to the buffer's spare tail, past the
		// candidates (none on the first step) they are intersected with
		// once their count over those rows — the predicate's own marginal
		// fraction — has been observed.
		in = sc.admitted
		e.m.sscgScans.Inc()
		e.m.rowsScanned.Add(int64(sc.admitted))
		align := max(v.Group().RowsPerPage(), 1) // page-spanning rows: every row owns its pages
		r.match = matcher(s.pred)
		if out, err = sc.collect(sc.scanUnits((e.morselRows+align-1)/align*align), sc.cand[len(sc.cand):]); err == nil && !first {
			matched, out = len(out), intersect(sc.cand, out)
		}
	case kernelProbeSSCG:
		// Per-candidate page accesses beat a full scan.
		e.m.sscgProbes.Inc()
		e.m.switchovers.Inc()
		e.m.rowsScanned.Add(int64(len(sc.cand)))
		r.match = matcher(s.pred)
		out, err = sc.collect(chunkCount(len(sc.cand), len(sc.ws)), sc.cand)
	}
	if err != nil {
		return 0, err
	}
	sc.cand = out
	if first {
		// The first step's zones left out only rows it does not match, so
		// its matches over the admitted rows are its matches over the main
		// — unless another conjunct left out a zone it admits.
		in = r.rows
		if sc.partial {
			in = 0
		}
	}
	for i := 0; i < chain; i++ {
		rows := len(out) // the output of the region's last step
		if i < chain-1 {
			rows = int(sc.outs[i])
		}
		if i > 0 {
			// A fused probe, booked as if it had run over the survivors.
			_, op = steps[i].operatorFor(false, float64(in)/float64(r.rows), e.threshold)
			op.RowsIn = in
			e.m.mrcProbes.Inc()
			e.m.rowsScanned.Add(int64(in))
		}
		e.observeSelectivity(&steps[i], in, max(matched, rows))
		op.RowsOut = rows
		morsels, reads = book(sc, tr, op, morsels, reads)
		if in = rows; rows == 0 {
			break
		}
	}
	return chain, nil
}

// indexLookup resolves a predicate through the column's group-key
// index, returning in dst[:0] the matching positions vis can see, in
// ascending row order. The dictionary search is DRAM-cheap and stays on
// the calling goroutine at any worker count.
func indexLookup(sc *scratch, idx *dict.Index, p Predicate, dst []uint32, vis reader) []uint32 {
	positions := dst[:0]
	switch p.Op {
	case Eq:
		positions = append(positions, idx.Eq(p.Value)...)
	case Between:
		positions = append(positions, idx.Between(p.Value, p.Hi)...)
	}
	sc.serial += int64(20 + len(positions)) // dictionary search + position reads
	out := vis.versions.FilterVisible(positions, vis.snapshot, vis.self)
	slices.Sort(out)
	return out
}

// matcher turns a validated predicate into a value filter for SSCG
// and delta evaluation.
func matcher(p Predicate) func(value.Value) bool {
	lo, hi := p.Value, p.Hi
	if p.Op == Eq {
		return func(x value.Value) bool { return x.Equal(lo) }
	}
	return func(x value.Value) bool { return x.Compare(lo) >= 0 && x.Compare(hi) <= 0 }
}

// runDelta evaluates the plan's steps over the delta side of the view. During
// an online merge the delta is split: the frozen partition (being folded
// into the new main) comes first in RowID order, then the active
// partition offset by the frozen row count — matching View.Visible's
// routing, so RowIDs assembled by run() resolve consistently. Its DRAM
// touches are made on the calling goroutine alone and go to sc.serial.
func runDelta(v *table.View, sc *scratch, steps []step, snapshot mvcc.Timestamp, self mvcc.TxID, tr *metrics.Trace) ([]uint32, error) {
	var out []uint32
	if fz := v.Frozen(); fz != nil {
		ids, err := runDeltaPart(sc, fz, v.FrozenRows(), 0, "delta.frozen", steps, snapshot, self, tr)
		if err != nil {
			return nil, err
		}
		out = ids
	}
	ids, err := runDeltaPart(sc, v.Active(), v.ActiveRows(), uint32(v.FrozenRows()), "delta", steps, snapshot, self, tr)
	if err != nil {
		return nil, err
	}
	return append(out, ids...), nil
}

// runDeltaPart evaluates the steps over one delta partition. bound
// caps the physical positions considered (the view's pin-time row count
// for the active delta, which keeps growing underneath us); offset
// shifts the returned positions into the view's combined delta RowID
// space.
func runDeltaPart(sc *scratch, d *delta.Partition, bound int, offset uint32, part string, steps []step, snapshot mvcc.Timestamp, self mvcc.TxID, tr *metrics.Trace) ([]uint32, error) {
	if bound == 0 {
		return nil, nil
	}
	inBound := func(positions []uint32) []uint32 {
		out := positions[:0]
		for _, pos := range positions {
			if int(pos) < bound {
				out = append(out, pos)
			}
		}
		return out
	}
	shift := func(positions []uint32) []uint32 {
		if offset != 0 {
			for i := range positions {
				positions[i] += offset
			}
		}
		return positions
	}
	if len(steps) == 0 {
		out := inBound(d.VisibleRows(snapshot, self))
		tr.Op(metrics.OperatorTrace{
			Name: "visible", Partition: part, Column: -1,
			RowsIn: bound, RowsOut: len(out),
		})
		return shift(out), nil
	}
	var cand []uint32
	for i := range steps {
		p := steps[i].pred
		if i == 0 {
			var err error
			switch p.Op {
			case Eq:
				cand, err = d.ScanEqual(p.Column, p.Value, snapshot, self, nil)
			default:
				cand, err = d.ScanRange(p.Column, p.Value, p.Hi, snapshot, self, nil)
			}
			if err != nil {
				return nil, err
			}
			cand = inBound(cand)
			sc.serial += int64(20 + len(cand))
			tr.Op(metrics.OperatorTrace{
				Name: "scan", Partition: part, Path: "index", Column: p.Column,
				RowsIn: bound, RowsOut: len(cand),
			})
		} else {
			in, pred := len(cand), matcher(p)
			out := cand[:0]
			for _, pos := range cand {
				val, err := d.Get(int(pos), p.Column)
				if err != nil {
					return nil, err
				}
				if pred(val) {
					out = append(out, pos)
				}
			}
			cand = out
			sc.serial += int64(len(cand))
			tr.Op(metrics.OperatorTrace{
				Name: "probe", Partition: part, Column: p.Column,
				RowsIn: in, RowsOut: len(cand),
			})
		}
		if len(cand) == 0 {
			return nil, nil
		}
	}
	slices.Sort(cand)
	return shift(cand), nil
}

// materialize fills res.Rows with the projected columns of each
// qualifying row. The values live in one arena and row i is a capped view
// of it, so appending to one row cannot overwrite the next. Each chunk
// of rows is one unit of a region.
func (e *Executor) materialize(v *table.View, sc *scratch, res *Result, project []int, tr *metrics.Trace) error {
	r := &sc.r
	r.kernel, r.v, r.sch, r.res, r.project, r.needGroup, r.strWidth = kernelMaterialize, v, e.tbl.Schema(), res, project, false, 0
	for _, c := range project {
		if v.GroupField(c) >= 0 {
			r.needGroup = true
			if f := r.sch.Field(c); f.Type == value.String {
				r.strWidth += f.SlotWidth()
			}
		}
	}
	k := len(project)
	arena := make([]value.Value, len(res.IDs)*k)
	res.Rows = make([][]value.Value, len(res.IDs))
	for i := range res.Rows {
		res.Rows[i] = arena[i*k : (i+1)*k : (i+1)*k]
	}
	morsels, reads := tally(sc.ws)
	if err := sc.run(chunkCount(len(res.IDs), len(sc.ws))); err != nil {
		return err
	}
	e.m.rowsMaterialized.Add(int64(len(res.IDs)))
	book(sc, tr, metrics.OperatorTrace{Name: "materialize", Partition: "main", Column: -1, RowsIn: len(res.IDs), RowsOut: len(res.IDs)}, morsels, reads)
	return nil
}

// materialize fills chunk m of the result's rows, column by column over
// its main rows — an SSCG-placed projection reads a row's bytes once into
// the worker's buffer (one page access delivers all grouped attributes
// of a row) and decodes the projected fields from them, its strings into
// one allocation per chunk; an MRC column gathers the chunk's codes first
// and then reads their values from the dictionary, so no access waits
// for the one before it — and cell by cell over its delta rows.
func (r *region) materialize(w *worker, m int) (err error) {
	ids, rows, sch, v := r.res.IDs, r.res.Rows, r.sch, r.v
	lo, hi := chunkBounds(len(ids), r.n, m)
	mid := lo // the chunk's main rows are [lo, mid): IDs ascend, main first
	for mid < hi && ids[mid] < uint64(r.rows) {
		mid++
	}
	if g := w.group; r.needGroup && mid > lo {
		w.row = slices.Grow(w.row[:0], g.RowWidth())[:g.RowWidth()]
		w.strs = slices.Grow(w.strs[:0], (mid-lo)*r.strWidth)
		for i := lo; i < mid; i++ {
			if err = g.ReadRowBytes(int(ids[i]), w.row); err != nil {
				return err
			}
			for j, c := range r.project {
				switch gf := v.GroupField(c); {
				case gf < 0:
				case sch.Field(c).Type == value.String:
					w.strs = append(w.strs, g.Slot(w.row, gf)...)
				default:
					if rows[i][j], err = g.Field(w.row, gf); err != nil {
						return err
					}
				}
			}
		}
		// The chunk's string slots become one string, and each cell
		// its slot's substring without the padding.
		strs := string(w.strs)
		for i := lo; i < mid && strs != ""; i++ {
			for j, c := range r.project {
				if f := sch.Field(c); f.Type == value.String && v.GroupField(c) >= 0 {
					rows[i][j] = value.NewString(strings.TrimRight(strs[:f.SlotWidth()], "\x00"))
					strs = strs[f.SlotWidth():]
				}
			}
		}
	}
	for j, c := range r.project {
		mrc := v.MRC(c)
		if mrc == nil {
			continue
		}
		w.touches += 2 * int64(mid-lo) // value vector + dictionary
		w.codes = slices.Grow(w.codes[:0], mid-lo)
		for _, id := range ids[lo:mid] {
			w.codes = append(w.codes, mrc.Code(int(id)))
		}
		for i, code := range w.codes {
			if rows[lo+i][j], err = mrc.Dictionary().Decode(code); err != nil {
				return err
			}
		}
	}
	for i := mid; i < hi; i++ {
		for j, c := range r.project {
			if rows[i][j], err = v.GetValue(ids[i], c); err != nil {
				return err
			}
		}
	}
	return nil
}

// intersect returns the sorted intersection of two ascending position
// lists, written over the head of a.
func intersect(a, b []uint32) []uint32 {
	out := a[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}
