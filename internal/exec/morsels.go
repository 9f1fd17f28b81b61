// Morsel scheduling for the main-partition pipeline (cf. HyPer's
// morsel-driven parallelism). A query runs as a sequence of regions, one
// parallel pass over units each: the first MRC scan fused with the MRC
// probes that follow it, an SSCG scan or probe, the visible rows, the
// materialization. A unit is a morsel of rows or a chunk of a candidate
// list; workers claim units from a shared counter (fast workers steal
// work from slow ones), and per-unit results are merged back in unit
// order. Every unit covers a disjoint ascending range, so the merged
// output does not depend on the worker count. One worker runs its units
// inline on the calling goroutine; that is the serial executor.
//
// Of several workers the calling goroutine is the first; the others are
// the query's helpers, one goroutine slot per worker, started at the
// query's first region of two or more units. Between regions a helper
// polls the claim word, yielding between checks, and leaves once the
// query has settled or it has found nothing to claim for a few polls; a
// later region of two or more units starts a helper again in every slot
// whose helper has left, so at most p-1 helpers run at once and every
// such region has them. The caller never waits for a helper to start: it
// claims units itself, yields briefly while helpers finish the units they
// claimed, and then sleeps until the last one wakes it. A helper may
// outlive Run, but it claims only under the generation it was started
// for, which retire ends before the scratch goes back to the pool, so
// after Run returns it touches nothing but the claim word and its own
// slot.
//
// Cost accounting follows the same shape at every worker count: each
// worker counts its own dependent DRAM touches and the device pages it
// reads through its own view of the pinned SSCG, and settle charges the
// query once — DRAM time and device time at the modeled wall-clock (the
// per-worker share; see TimedStore.ChargeReads for why the mean stands
// in for the slowest worker), page reads in full. An MRC scan is priced
// per region, not per worker: its admitted bytes as p balanced
// concurrent streams, so its charge does not depend on which worker ran
// which morsel. Nothing is charged while the query runs, so a query's
// trace holds its own reads and no one else's.
package exec

import (
	"context"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"tierdb/internal/dict"
	"tierdb/internal/metrics"
	"tierdb/internal/schema"
	"tierdb/internal/sscg"
	"tierdb/internal/storage"
	"tierdb/internal/table"
	"tierdb/internal/value"
)

// DefaultMorselRows is the number of main-partition rows per morsel.
// Large enough to amortize dispatch, small enough that a query over a
// million rows yields dozens of units for load balancing. A morsel is a
// multiple of 64 rows, so at any code width it starts on a word
// boundary of the packed vector and no word is read by two workers.
const DefaultMorselRows = 16384

// worker carries one worker's execution state for one query.
type worker struct {
	// group is the pinned snapshot's SSCG as this worker reads it: its
	// view on a timed table, the group itself otherwise.
	group *sscg.Group
	// view is viewOf read through store, which reads the device's untimed
	// side and counts into reads. It is kept across queries and rebuilt
	// only when the table's group changes, so between queries a pooled
	// worker still holds the last group it read — after a merge swap, a
	// retired group's layout and page ids, not its pages.
	view, viewOf *sscg.Group
	store        countingStore
	reads        int64 // device pages read by this query
	touches      int64 // dependent DRAM accesses performed
	morsels      int64 // units this worker claimed from the shared counter
	// buf collects the positions this worker's units produced, unit after
	// unit and region after region; it is emptied once per query.
	buf []uint32
	// codes holds the codes of the chunk's rows being materialized, row
	// the bytes of the SSCG row, strs the string slots of the chunk's rows.
	codes     []uint32
	row, strs []byte
}

// countingStore is the backing store of a worker's view: it counts the
// pages the worker reads and reads them from the untimed store.
type countingStore struct {
	storage.Store
	reads *int64
}

// ReadPage counts one read and forwards it.
func (s *countingStore) ReadPage(id storage.PageID, buf []byte) error {
	*s.reads++
	return s.Store.ReadPage(id, buf)
}

// scratch is the memory one query's main-partition pipeline works in:
// the workers with their position buffers, where each unit of the
// current region left its positions, the candidate list one operator
// hands the next, the DRAM touches made on the calling goroutine alone
// (index lookups, the delta), which no worker shares, which zones of the
// main partition the query's full scans read, the current region and the
// gang's claim word. It is allocated while serving, lives in the
// executor's pool between queries and is taken by one query at a time; a
// Result never points into it (runPinned copies the ids out).
type scratch struct {
	ws     []worker
	units  []span
	cand   []uint32
	serial int64
	dram   time.Duration // the MRC scans' streaming time, charged as is
	// zones[z] says whether a full scan reads zone z (empty: every zone);
	// admitted is the rows of the zones it reads, and partial says a zone
	// the first step admits was rejected by another conjunct.
	zones    []bool
	admitted int
	partial  bool
	// mors lists the morsels a scan region's units cover: those with
	// admitted rows.
	mors []int
	// steps is the query's plan; outs[i] counts the positions step i of a
	// fused chain kept, for every step but the chain's last.
	steps []step
	outs  []int64
	r     region
	ctx   context.Context
	// claim holds the query's generation in its high 32 bits and the
	// current region's units not yet handed out in its low 32; done counts
	// the region's units finished or cancelled, err is its first error
	// (set by whoever wins failed), asleep says the caller waits on wake
	// for the region's last unit, and helpers[i] is worker i's helper slot
	// (helpers[0], the caller's, is unused).
	claim   atomic.Uint64
	done    atomic.Int64
	failed  atomic.Bool
	err     error
	asleep  atomic.Bool
	wake    chan struct{}
	helpers []helper
}

// region is what the units of one region run: a kernel and its
// arguments, set on the calling goroutine before the units are handed
// out. A unit reads them only once it has claimed, and the caller
// changes them only once every claimed unit has finished.
type region struct {
	kernel kernel
	n      int      // units
	size   int      // rows per scan morsel
	rows   int      // main rows
	cand   []uint32 // the list a probe or materialize chunk reads
	vis    reader   // whom a scan's matches must be visible to
	// steps are the step the region runs and, after an MRC scan, the MRC
	// probes fused with it; match is an SSCG kernel's value filter.
	steps []step
	match func(value.Value) bool
	// What materialize reads and fills.
	v         *table.View
	sch       *schema.Schema
	res       *Result
	project   []int
	needGroup bool
	strWidth  int // the projected string slots' bytes per row
}

// span is one unit's stretch w.buf[lo:hi] of its worker's positions.
type span struct {
	w      *worker
	lo, hi int
}

// helper is one worker's helper slot. state holds the generation its
// helper was last started for, shifted left by two, and whether that
// helper is pending (its goroutine has not yet run), running or gone.
// While a start is pending the slot is not started again, so the
// goroutine reads its own generation from state; start is its body, made
// once per scratch, so starting a helper allocates nothing.
type helper struct {
	state atomic.Uint64
	start func()
}

// Helper slot states, the low two bits of helper.state.
const (
	gone uint64 = iota
	pending
	running
)

// helperPolls is how many times in a row a helper finds nothing to claim
// before it leaves. Polling costs CPU while the caller runs the serial
// work between regions, and leaving costs a goroutine start at the next
// region of two or more units; neither changes a result.
const helperPolls = 16

// waitSpins is how many times the caller yields while helpers finish
// the units they claimed before it sleeps until the last one wakes it,
// so that a helper blocked in a page read does not keep the caller
// spinning on a P.
const waitSpins = 64

// newScratch returns an empty scratch for p workers.
func newScratch(p int) *scratch {
	sc := &scratch{ws: make([]worker, p), helpers: make([]helper, p), wake: make(chan struct{}, 1)}
	for i := 1; i < p; i++ {
		// Worker i's helper takes the slot's pending start and pulls units
		// of that start's generation.
		h := &sc.helpers[i]
		h.start = func() { sc.pull(&sc.ws[i], h.state.Add(running-pending)>>2, h) }
	}
	return sc
}

// scratchFor takes a scratch from the pool and readies its workers for
// one query. Workers read the pinned snapshot's SSCG, not the table's
// live one, so a mid-query merge swap is invisible; on a timed table,
// through their own counting views. The caller returns the scratch with
// retire and e.pool.Put.
func (e *Executor) scratchFor(ctx context.Context, v *table.View, vis reader) *scratch {
	sc := e.pool.Get().(*scratch)
	sc.cand, sc.serial, sc.dram, sc.zones, sc.partial, sc.ctx = sc.cand[:0], 0, 0, sc.zones[:0], false, ctx
	sc.r.vis, sc.r.rows, sc.r.size = vis, v.MainRows(), e.morselRows
	timed, _ := e.tbl.Store().(*storage.TimedStore)
	for i := range sc.ws {
		w := &sc.ws[i]
		*w = worker{group: v.Group(), view: w.view, viewOf: w.viewOf, store: w.store, buf: w.buf[:0], codes: w.codes, row: w.row, strs: w.strs}
		if timed == nil || w.group == nil {
			continue
		}
		if w.viewOf != w.group {
			w.store = countingStore{timed.Untimed(), &w.reads}
			w.view, w.viewOf = w.group.WithBacking(&w.store), w.group
		}
		w.group = w.view
	}
	return sc
}

// retire ends the query's generation, so its helpers claim nothing more
// and exit, and drops what the pooled scratch must not keep alive.
func (sc *scratch) retire() {
	sc.claim.Store((sc.claim.Load()>>32 + 1) << 32)
	sc.r, sc.ctx = region{}, nil
	clear(sc.steps[:cap(sc.steps)])
}

// admit is the zone rule, applied before the first full scan: a zone
// of the main partition is read only if every DRAM conjunct's zone
// bounds admit its code range. It returns the admitted rows and sets
// sc.partial if a zone the first step admits was rejected by another.
func (sc *scratch) admit(steps []step, mainRows int) (rows int) {
	n := (mainRows + dict.ZoneRows - 1) / dict.ZoneRows
	sc.zones = slices.Grow(sc.zones[:0], n)[:n]
	for z := range sc.zones {
		ok, first := true, true
		for i := range steps {
			if s := &steps[i]; s.mrc != nil {
				ok = ok && s.mrc.Codes().Admits(z, s.lo, s.hi)
			}
			if i == 0 {
				first = ok
			}
		}
		sc.partial = sc.partial || first && !ok
		if sc.zones[z] = ok; ok {
			rows += min((z+1)*dict.ZoneRows, mainRows) - z*dict.ZoneRows
		}
	}
	return rows
}

// stretch returns the first run [lo, hi) of admitted rows within
// [from, end), lo == end when there is none: it starts and stops on zone
// boundaries, or on from and end.
func (sc *scratch) stretch(from, end int) (lo, hi int) {
	if len(sc.zones) == 0 {
		return from, end
	}
	next := func(row int) int { return min((row/dict.ZoneRows+1)*dict.ZoneRows, end) }
	for lo = from; lo < end && !sc.zones[lo/dict.ZoneRows]; lo = next(lo) {
	}
	for hi = lo; hi < end && sc.zones[hi/dict.ZoneRows]; hi = next(hi) {
	}
	return lo, hi
}

// scanUnits sets the region's morsel size and lists the morsels of that
// size that hold admitted rows — the only ones handed out — returning
// their count.
func (sc *scratch) scanUnits(size int) int {
	sc.r.size, sc.mors = size, sc.mors[:0]
	for lo := 0; lo < sc.r.rows; lo += size {
		end := min(lo+size, sc.r.rows)
		if a, _ := sc.stretch(lo, end); a < end {
			sc.mors = append(sc.mors, lo/size)
		}
	}
	return len(sc.mors)
}

// settle is the one place a query's modeled cost is charged. DRAM time
// advances by the calling goroutine's serial touches, the MRC scans'
// streaming time (already the time of p concurrent streams) and the
// per-worker share of the workers' touches; the device is charged for
// every page the workers read at a queue depth of one stream per worker;
// the trace gets both, and the page count. It is also the one place
// that decides what counts as a parallel query: exec.queries.parallel
// needs more than one worker, and morsels are reported only when units
// were handed out through the shared counter.
func (e *Executor) settle(sc *scratch, tr *metrics.Trace) {
	ws := sc.ws
	p := time.Duration(len(ws))
	var sum time.Duration
	for i := range ws {
		sum += time.Duration(ws[i].touches) * DefaultDRAMTouch
	}
	dram := time.Duration(sc.serial)*DefaultDRAMTouch + sc.dram + (sum+p-1)/p
	e.charge(dram)
	morsels, reads := tally(ws)
	var device time.Duration
	if timed, ok := e.tbl.Store().(*storage.TimedStore); ok {
		device = timed.ChargeReads(reads, len(ws))
	}
	if tr != nil {
		tr.DRAMNs, tr.DeviceNs, tr.PageReads = int64(dram), int64(device), reads
	}
	if len(ws) > 1 {
		e.m.parallelQueries.Inc()
	}
	e.m.morsels.Add(morsels)
	if morsels > 0 && tr != nil {
		for i := range ws {
			tr.WorkerMorsels = append(tr.WorkerMorsels, ws[i].morsels)
		}
	}
}

// tally sums the workers' unit and page-read counters; the deltas
// around a region are its morsels and page reads.
func tally(ws []worker) (morsels, reads int64) {
	for i := range ws {
		morsels += ws[i].morsels
		reads += ws[i].reads
	}
	return morsels, reads
}

// run runs units 0..n-1 of the region set up in sc.r: it publishes them
// in the claim word, starts a helper in every slot that has none if the
// region has two or more units, claims units on the calling goroutine
// like any helper — one worker claims them all, in order — and then
// waits for the units helpers claimed. The first error (a unit's, or the
// query's context's, checked before every unit) wins and hands out no
// further unit; it is returned once every claimed unit has finished.
func (sc *scratch) run(n int) error {
	sc.r.n = n
	gen := sc.claim.Load() >> 32
	sc.err = nil
	sc.failed.Store(false)
	sc.done.Store(0)
	sc.claim.Store(gen<<32 | uint64(n))
	if n >= 2 {
		sc.staff(gen)
	}
	sc.pull(&sc.ws[0], gen, nil)
	for spins := 0; spins < waitSpins && sc.done.Load() < int64(n); spins++ {
		runtime.Gosched()
	}
	if sc.done.Load() < int64(n) {
		// Whoever finishes the last unit sees asleep and wakes the caller,
		// unless the caller takes asleep back first.
		sc.asleep.Store(true)
		if sc.done.Load() < int64(n) || !sc.asleep.CompareAndSwap(true, false) {
			<-sc.wake
		}
	}
	return sc.err
}

// staff starts a helper of generation gen in every slot whose helper has
// left or belongs to an earlier generation, unless a start is pending.
func (sc *scratch) staff(gen uint64) {
	for i := 1; i < len(sc.helpers); i++ {
		h := &sc.helpers[i]
		for {
			s := h.state.Load()
			if s&3 == pending || s == gen<<2|running {
				break
			}
			if h.state.CompareAndSwap(s, gen<<2|pending) {
				go h.start()
				break
			}
		}
	}
}

// finish counts k units of an n-unit region done; whoever counts the
// last wakes the caller if it sleeps.
func (sc *scratch) finish(k, n int64) {
	if sc.done.Add(k) == n && sc.asleep.Swap(false) {
		sc.wake <- struct{}{}
	}
}

// pull runs units of the current region on w for as long as it can
// claim one under generation gen. The caller (h nil) returns when the
// region has none left to hand out; a helper then polls for the query's
// next region, yielding between checks, and returns once gen has ended
// or it has found nothing to claim helperPolls times in a row. It marks
// its slot gone before it leaves and looks once more: a region published
// meanwhile saw the slot running and started no one, so the helper takes
// the slot back unless a new start has. A claim is one compare-and-swap
// on the claim word, so it takes a unit of gen's current region or
// nothing; only then does w read the region.
func (sc *scratch) pull(w *worker, gen uint64, h *helper) {
	for idle := 0; ; idle++ {
		c := sc.claim.Load()
		left := uint32(c)
		switch {
		case c>>32 != gen || left == 0 && h == nil:
			return
		case left == 0 && idle < helperPolls:
			runtime.Gosched()
			continue
		case left == 0:
			if !h.state.CompareAndSwap(gen<<2|running, gen<<2|gone) {
				return
			}
			if c = sc.claim.Load(); c>>32 != gen || uint32(c) == 0 || !h.state.CompareAndSwap(gen<<2|gone, gen<<2|running) {
				return
			}
			idle = -1
			continue
		case !sc.claim.CompareAndSwap(c, c-1):
			continue
		}
		if idle = 0; len(sc.ws) > 1 {
			w.morsels++ // a lone worker's units are loop iterations, not handed out
		}
		n := int64(sc.r.n)
		err := sc.ctx.Err()
		if err == nil {
			err = sc.unit(w, int(n)-int(left))
		}
		if err != nil && sc.failed.CompareAndSwap(false, true) {
			sc.err = err
			// Hands out no further unit: the ones left count as done.
			sc.finish(int64(uint32(sc.claim.Swap(gen<<32))), n)
		}
		sc.finish(1, n)
	}
}

// unit runs unit m of the current region on w, dispatching on the
// region's kernel. A filter kernel appends the unit's positions to the
// tail of w.buf and records their stretch in sc.units[m]; a scan then
// drops the matches its reader cannot see — one lock hold per unit, one
// check per match — and an MRC scan hands the survivors through the
// MRC probes fused with it, each narrowing them in place.
func (sc *scratch) unit(w *worker, m int) (err error) {
	r := &sc.r
	lo, out := len(w.buf), w.buf
	switch r.kernel {
	case kernelMaterialize:
		return r.materialize(w, m)
	case kernelVisible:
		row := m * r.size
		out = r.vis.versions.VisibleIn(row, min(row+r.size, r.rows), r.vis.snapshot, r.vis.self, out)
	case kernelProbeMRC, kernelProbeSSCG:
		a, b := chunkBounds(len(r.cand), r.n, m)
		if s := &r.steps[0]; r.kernel == kernelProbeSSCG {
			out, err = w.group.Probe(s.field, r.match, r.cand[a:b], out)
		} else {
			w.touches += int64(b - a)
			out = s.mrc.Codes().Probe(s.lo, s.hi, r.cand[a:b], out)
		}
	case kernelScanMRC, kernelScanSSCG:
		s, end := &r.steps[0], min((sc.mors[m]+1)*r.size, r.rows)
		for a, b := sc.stretch(sc.mors[m]*r.size, end); a < end && err == nil; a, b = sc.stretch(b, end) {
			if r.kernel == kernelScanSSCG {
				out, err = w.group.ScanRows(s.field, r.match, a, b, out, nil)
			} else {
				out = s.mrc.Codes().ScanRangeIn(s.lo, s.hi, a, b, out)
			}
		}
		if err == nil && r.vis.versions != nil {
			out = out[:lo+len(r.vis.versions.FilterVisible(out[lo:], r.vis.snapshot, r.vis.self))]
		}
		for i := 1; i < len(r.steps); i++ {
			atomic.AddInt64(&sc.outs[i-1], int64(len(out)-lo))
			if s = &r.steps[i]; len(out) > lo {
				w.touches += int64(len(out) - lo)
				out = out[:lo+len(s.mrc.Codes().Probe(s.lo, s.hi, out[lo:], out[lo:lo]))]
			}
		}
	}
	if err != nil {
		return err
	}
	w.buf, sc.units[m] = out, span{w, lo, len(out)}
	return nil
}

// collect runs the region's n units and returns their position lists
// concatenated in unit order in dst[:0]. Every unit covers a disjoint
// ascending range, so the concatenation is globally sorted — the
// ordered-merge guarantee of the pipeline. The worker buffers are
// stitched into dst only after every unit has run, so dst may be the
// candidate list the units are reading.
func (sc *scratch) collect(n int, dst []uint32) ([]uint32, error) {
	sc.units = slices.Grow(sc.units[:0], n)[:n]
	if err := sc.run(n); err != nil {
		return dst[:0], err
	}
	dst = dst[:0]
	for _, u := range sc.units {
		dst = append(dst, u.w.buf[u.lo:u.hi]...)
	}
	return dst, nil
}

// morselCount is the number of size-row morsels covering rows rows.
func morselCount(rows, size int) int { return (rows + size - 1) / size }

// chunkCount splits n candidates into up to four chunks per worker so
// morsel stealing can rebalance skew, but never more chunks than items.
// One worker, with no one to steal from, takes them as one chunk.
func chunkCount(n, workers int) int {
	if workers == 1 {
		return 1
	}
	return max(min(4*workers, n), 1)
}

// chunkBounds returns the m-th of n even, order-preserving chunks of a
// list of length ln.
func chunkBounds(ln, n, m int) (lo, hi int) {
	return m * ln / n, (m + 1) * ln / n
}
