// Morsel scheduling for the main-partition pipeline (cf. HyPer's
// morsel-driven parallelism): a row range or candidate list is carved
// into units, workers pull units from a shared counter (fast workers
// steal work from slow ones), and per-unit results are merged back in
// unit order. Every unit covers a disjoint ascending range, so the
// merged output does not depend on the worker count. One worker runs
// its units inline on the calling goroutine; that is the serial
// executor. Of several workers the calling goroutine is the first.
//
// Cost accounting follows the same shape at every worker count: each
// worker counts its own DRAM work and the device pages it reads through
// its own view of the pinned SSCG, and settle charges the query once —
// DRAM time and device time at the modeled wall-clock (the per-worker
// share; see TimedStore.ChargeReads for why the mean stands in for the
// slowest worker), page reads in full. Nothing is charged while the
// query runs, so a query's trace holds its own reads and no one else's.
package exec

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"tierdb/internal/dict"
	"tierdb/internal/metrics"
	"tierdb/internal/sscg"
	"tierdb/internal/storage"
	"tierdb/internal/table"
)

// DefaultMorselRows is the number of main-partition rows per morsel.
// Large enough to amortize dispatch, small enough that a query over a
// million rows yields dozens of units for load balancing. A morsel is a
// multiple of 64 rows (New rounds Options.MorselRows up), so at any code
// width it starts on a word boundary of the packed vector and no word is
// read by two workers.
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
	reads        int64         // device pages read by this query
	touches      int64         // dependent DRAM accesses performed
	dram         time.Duration // modeled DRAM streaming time
	scanned      int           // scratch: MRC rows scanned by the current operator
	morsels      int64         // units this worker pulled from the shared counter
	// buf collects the positions this worker's units produced, unit after
	// unit and operator after operator; it is emptied once per query.
	buf []uint32
	// row holds the bytes of the SSCG row being materialized, strs the
	// string slots of the chunk's rows.
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
// current operator left its positions, the candidate list one operator
// hands the next, and the DRAM touches made on the calling goroutine
// alone (index lookups, the delta), which no worker shares, and which
// zones of the main partition the query's full scans read. It is
// allocated while serving, lives in the executor's pool between queries
// and is taken by one query at a time; a Result never points into it
// (runPinned copies the ids out).
type scratch struct {
	ws     []worker
	sched  sched
	units  []span
	cand   []uint32
	serial int64
	// zones[z] says whether a full scan reads zone z (empty: every zone);
	// admitted is the rows of the zones it reads.
	zones    []bool
	admitted int
}

// span is one unit's stretch w.buf[lo:hi] of its worker's positions.
type span struct {
	w      *worker
	lo, hi int
}

// scratchFor takes a scratch from the pool and readies its workers for
// one query. Workers read the pinned snapshot's SSCG, not the table's
// live one, so a mid-query merge swap is invisible; on a timed table,
// through their own counting views. The caller returns the scratch with
// e.pool.Put.
func (e *Executor) scratchFor(v *table.View) *scratch {
	sc := e.pool.Get().(*scratch)
	sc.cand, sc.serial, sc.zones = sc.cand[:0], 0, sc.zones[:0]
	timed, _ := e.tbl.Store().(*storage.TimedStore)
	for i := range sc.ws {
		w := &sc.ws[i]
		*w = worker{group: v.Group(), view: w.view, viewOf: w.viewOf, store: w.store, buf: w.buf[:0], row: w.row, strs: w.strs}
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

// admit is the zone rule, applied before the first full scan: a zone
// of the main partition is read only if every DRAM conjunct's zone
// bounds admit its code range. It returns the admitted rows.
func (sc *scratch) admit(steps []step, mainRows int) (rows int) {
	n := (mainRows + dict.ZoneRows - 1) / dict.ZoneRows
	sc.zones = slices.Grow(sc.zones[:0], n)[:n]
	for z := range sc.zones {
		ok := true
		for i := range steps {
			if s := &steps[i]; s.mrc != nil {
				ok = ok && s.mrc.Codes().Admits(z, s.lo, s.hi)
			}
		}
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

// settle is the one place a query's modeled cost is charged. DRAM time
// advances by the calling goroutine's serial touches plus the per-worker
// share of the workers' total; the device is charged for every page the
// workers read at a queue depth of one stream per worker; the trace gets
// both, and the page count. It is also the one place that decides what
// counts as a parallel query: exec.queries.parallel needs more than one
// worker, and morsels are reported only when units were handed out
// through the shared counter.
func (e *Executor) settle(sc *scratch, tr *metrics.Trace) {
	ws := sc.ws
	p := time.Duration(len(ws))
	var sum time.Duration
	for i := range ws {
		sum += ws[i].dram + time.Duration(ws[i].touches)*DefaultDRAMTouch
	}
	dram := time.Duration(sc.serial)*DefaultDRAMTouch + (sum+p-1)/p
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
	if morsels > 0 {
		counts := make([]int64, len(ws))
		for i := range ws {
			counts[i] = ws[i].morsels
		}
		e.m.morsels.Add(morsels)
		tr.AddWorkerMorsels(counts)
	}
}

// tally sums the workers' unit and page-read counters; the deltas
// around an operator are that operator's morsels and page reads.
func tally(ws []worker) (morsels, reads int64) {
	for i := range ws {
		morsels += ws[i].morsels
		reads += ws[i].reads
	}
	return morsels, reads
}

// runMorsels runs fn on units 0..n-1. One worker runs them in order on
// the calling goroutine. Several workers each pull the next unit index
// from a shared counter — the calling goroutine as the first of them, so
// an operator starts one goroutine fewer than it has workers; the first
// error wins: it cancels the remaining units, every worker drains
// promptly, and the error is returned only after all workers have
// exited — no goroutine outlives the call.
func runMorsels(sc *scratch, n int, fn func(w *worker, m int) error) error {
	if len(sc.ws) == 1 {
		for m := 0; m < n; m++ {
			if err := fn(&sc.ws[0], m); err != nil {
				return err
			}
		}
		return nil
	}
	s := &sc.sched
	s.n, s.fn, s.err, s.once = n, fn, nil, sync.Once{}
	s.next.Store(0)
	s.wg.Add(len(sc.ws))
	for i := 1; i < len(sc.ws); i++ {
		go s.pull(&sc.ws[i])
	}
	s.pull(&sc.ws[0])
	s.wg.Wait()
	s.fn = nil // the pooled scratch must not keep a query's closures, and what they hold, alive
	return s.err
}

// sched is what the workers of one runMorsels call share. It lives in
// the scratch, so handing out an operator's units allocates nothing but
// the goroutines.
type sched struct {
	n    int
	fn   func(w *worker, m int) error
	next atomic.Int64
	once sync.Once
	err  error
	wg   sync.WaitGroup
}

// pull runs units on w until none is left or one has failed.
func (s *sched) pull(w *worker) {
	defer s.wg.Done()
	for {
		m := int(s.next.Add(1)) - 1
		if m >= s.n {
			return
		}
		w.morsels++
		if err := s.fn(w, m); err != nil {
			s.once.Do(func() { s.err = err })
			s.next.Store(int64(s.n)) // hands out no further unit
			return
		}
	}
}

// collect runs kernel on units 0..n-1 and returns their position lists
// concatenated in unit order in dst[:0] (nil allocates). Every unit
// covers a disjoint ascending range, so the concatenation is globally
// sorted — the ordered-merge guarantee of the pipeline. kernel appends
// unit m's positions to out, the tail of its worker's own buffer; with a
// reader, the rows it cannot see are then dropped from that tail — one
// lock hold per unit, one check per match. The buffers are stitched into
// dst only after every unit has run, so dst may be the candidate list
// the kernels are reading.
func collect(sc *scratch, n int, dst []uint32, vis reader, kernel func(w *worker, m int, out []uint32) ([]uint32, error)) ([]uint32, error) {
	sc.units = slices.Grow(sc.units[:0], n)[:n]
	err := runMorsels(sc, n, func(w *worker, m int) error {
		lo := len(w.buf)
		out, err := kernel(w, m, w.buf)
		if err != nil {
			return err
		}
		if vis.versions != nil {
			out = out[:lo+len(vis.versions.FilterVisible(out[lo:], vis.snapshot, vis.self))]
		}
		w.buf, sc.units[m] = out, span{w, lo, len(out)}
		return nil
	})
	if err != nil {
		return nil, err
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
