// Morsel scheduling for the main-partition pipeline (cf. HyPer's
// morsel-driven parallelism): a row range or candidate list is carved
// into units, workers pull units from a shared counter (fast workers
// steal work from slow ones), and per-unit results are merged back in
// unit order. Every unit covers a disjoint ascending range, so the
// merged output does not depend on the worker count. One worker runs
// its units inline on the calling goroutine; that is the serial
// executor.
//
// Cost accounting follows the same shape: every worker accumulates its
// own modeled DRAM time and device reads, and settle charges the shared
// clocks once per query with the query's modeled wall-clock — the
// slowest worker, which under morsel-balanced scheduling is the
// per-worker mean — while page-read counts sum. See Clock.Absorb for
// why the mean stands in for the maximum.
package exec

import (
	"sync"
	"sync/atomic"
	"time"

	"tierdb/internal/metrics"
	"tierdb/internal/sscg"
	"tierdb/internal/storage"
	"tierdb/internal/table"
)

// DefaultMorselRows is the number of main-partition rows per morsel.
// Large enough to amortize dispatch, small enough that a query over a
// million rows yields dozens of units for load balancing.
const DefaultMorselRows = 16384

// worker carries one worker's execution state for one query.
type worker struct {
	// clock is the device clock this worker's page reads land on: the
	// table's own when the worker has the device to itself, a private
	// fork (merged by settle) when workers share it, nil when no read
	// can be timed.
	clock *storage.Clock
	// group is the pinned snapshot's SSCG as this worker reads it.
	group   *sscg.Group
	touches int64         // dependent DRAM accesses performed
	dram    time.Duration // modeled DRAM streaming time
	scanned int           // scratch: MRC rows scanned by the current operator
	morsels int64         // units this worker pulled from the shared counter
}

// newWorkers builds the worker set of one query. Workers view the
// pinned snapshot's SSCG, not the table's live one, so a mid-query
// merge swap is invisible. A single worker reads through the table's
// own timed store; several workers each read through a fork charging a
// private clock at the query's stream count, so the device model sees
// the true concurrency and no clock is shared on the scan path.
func (e *Executor) newWorkers(v *table.View) []worker {
	ws := make([]worker, e.parallelism)
	timed, _ := e.tbl.Store().(*storage.TimedStore)
	for i := range ws {
		w := &ws[i]
		w.group = v.Group()
		if timed == nil || w.group == nil {
			continue
		}
		w.clock = timed.Clock()
		if len(ws) > 1 {
			w.clock = &storage.Clock{}
			w.group = w.group.WithBacking(timed.Fork(w.clock, len(ws)))
		}
	}
	return ws
}

// settle charges the query's main-partition work to the shared clocks:
// DRAM and forked device time advance by the modeled wall-clock (the
// per-worker share of the total), page-read counts by the total. It is
// also the one place that decides what counts as a parallel query:
// exec.queries.parallel needs more than one worker, and morsels are
// reported only when units were handed out through the shared counter.
func (e *Executor) settle(ws []worker, tr *metrics.Trace) {
	p := time.Duration(len(ws))
	var sum time.Duration
	var morsels int64
	var forks []*storage.Clock
	shared := e.deviceClock()
	for i := range ws {
		w := &ws[i]
		sum += w.dram + time.Duration(w.touches)*DefaultDRAMTouch
		morsels += w.morsels
		if w.clock != nil && w.clock != shared {
			forks = append(forks, w.clock)
		}
	}
	e.charge(tr, (sum+p-1)/p)
	if forks != nil {
		shared.Absorb(len(ws), forks...)
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

// morselsOf sums the workers' unit counters; the delta around an
// operator yields that operator's morsel count for traces.
func morselsOf(ws []worker) int64 {
	var n int64
	for i := range ws {
		n += ws[i].morsels
	}
	return n
}

// readsOf sums the page reads on the workers' device clocks; the delta
// around an operator is that operator's page reads. Called only between
// operators (after runMorsels returns), so the loads race with nothing
// of this query's; like the trace's query-level attribution it assumes
// no concurrent query shares the table's clock.
func readsOf(ws []worker) int64 {
	var n int64
	for i := range ws {
		if c := ws[i].clock; c != nil {
			n += c.Reads()
		}
	}
	return n
}

// runMorsels runs fn on units 0..n-1. One worker runs them in order on
// the calling goroutine. Several workers each pull the next unit index
// from a shared counter; the first error wins: it cancels the remaining
// units, every worker drains promptly, and the error is returned only
// after all workers have exited — no goroutine outlives the call.
func runMorsels(ws []worker, n int, fn func(w *worker, m int) error) error {
	if len(ws) == 1 {
		for m := 0; m < n; m++ {
			if err := fn(&ws[0], m); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next     atomic.Int64
		failed   atomic.Bool
		once     sync.Once
		firstErr error
		wg       sync.WaitGroup
	)
	for i := range ws {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for !failed.Load() {
				m := int(next.Add(1)) - 1
				if m >= n {
					return
				}
				w.morsels++
				if err := fn(w, m); err != nil {
					once.Do(func() { firstErr = err })
					failed.Store(true)
					return
				}
			}
		}(&ws[i])
	}
	wg.Wait()
	return firstErr
}

// collect runs kernel on units 0..n-1 and merges the position lists in
// unit order, appending to dst (nil allocates). Every unit covers a
// disjoint ascending range, so the concatenation is globally sorted —
// the ordered-merge guarantee of the pipeline. The lists may be
// sub-slices of dst's own array lying at or beyond the point they are
// copied to, which is what filtering a candidate list in place yields.
func collect(ws []worker, n int, dst []uint32, kernel func(w *worker, m int) ([]uint32, error)) ([]uint32, error) {
	parts := make([][]uint32, n)
	err := runMorsels(ws, n, func(w *worker, m int) (err error) {
		parts[m], err = kernel(w, m)
		return err
	})
	if err != nil {
		return nil, err
	}
	if n == 1 {
		return parts[0], nil
	}
	if dst == nil {
		total := 0
		for _, p := range parts {
			total += len(p)
		}
		dst = make([]uint32, 0, total)
	}
	for _, p := range parts {
		dst = append(dst, p...)
	}
	return dst, nil
}

// morselCount is the number of size-row morsels covering rows rows.
func morselCount(rows, size int) int { return (rows + size - 1) / size }

// chunkCount splits n candidates into up to four chunks per worker so
// morsel stealing can rebalance skew, but never more chunks than items.
func chunkCount(n, workers int) int {
	return max(min(4*workers, n), 1)
}

// chunkBounds returns the m-th of n even, order-preserving chunks of a
// list of length ln.
func chunkBounds(ln, n, m int) (lo, hi int) {
	return m * ln / n, (m + 1) * ln / n
}
