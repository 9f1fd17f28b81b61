// Package amm provides a fixed-capacity page cache with pinning,
// substituting for EMC's Advanced Memory Manager (AMM) the paper uses
// for data eviction and caching (Section II-C): a pre-allocated
// fixed-size page cache in front of secondary storage. It is a read
// cache: SSCG pages are written once when a main partition is built and
// are immutable until the merge frees them, so a frame never holds data
// the store lacks and eviction never writes. Eviction uses the CLOCK
// second-chance policy; pinned frames are never evicted.
package amm

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tierdb/internal/metrics"
	"tierdb/internal/storage"
)

// ErrNoEvictableFrame is returned when every frame is pinned and a miss
// cannot be admitted.
var ErrNoEvictableFrame = errors.New("amm: all frames pinned")

// Stats reports cache effectiveness.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
}

// HitRate returns hits / (hits+misses), or 0 for an untouched cache.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

type frame struct {
	id      storage.PageID
	data    []byte
	valid   bool
	loading bool // fault IO in flight; data not yet readable
	pins    int
	refbit  bool
}

// Cache is a fixed-size page cache over a storage.Store. All methods
// are safe for concurrent use; fault IO happens outside the cache lock
// so hits on other pages proceed while a miss is being served.
type Cache struct {
	mu      sync.Mutex
	loaded  sync.Cond // signalled when a loading frame settles or pins drop
	backing storage.Store
	frames  []frame
	index   map[storage.PageID]int
	hand    int
	stats   Stats
	// pinned counts frames with a nonzero pin count. It is written only
	// under mu (on 0→1 and 1→0 pin transitions) but read lock-free, so
	// PinnedFrames never contends with a fault in progress.
	pinned atomic.Int64

	// Optional observability handles (nil when unobserved; all metrics
	// instruments are no-ops on nil).
	cHits      *metrics.Counter
	cMisses    *metrics.Counter
	cEvictions *metrics.Counter
	hFault     *metrics.Histogram
	gPinned    *metrics.Gauge
}

// New creates a cache with the given number of page frames in front of
// backing. Frames are pre-allocated, as with AMM's fixed-size caches.
func New(frames int, backing storage.Store) (*Cache, error) {
	if frames <= 0 {
		return nil, fmt.Errorf("amm: frame count %d must be positive", frames)
	}
	c := &Cache{
		backing: backing,
		frames:  make([]frame, frames),
		index:   make(map[storage.PageID]int, frames),
	}
	c.loaded.L = &c.mu
	for i := range c.frames {
		c.frames[i].data = make([]byte, storage.PageSize)
	}
	return c, nil
}

// Observe registers the cache's instruments with a metrics registry:
// amm.hits / amm.misses / amm.evictions counters, an amm.fault_ns
// wall-clock fault-latency histogram, and an amm.pinned_frames gauge
// whose high-watermark records peak pin pressure. A nil registry leaves
// the cache unobserved at zero cost.
func (c *Cache) Observe(r *metrics.Registry) {
	c.cHits = r.Counter("amm.hits")
	c.cMisses = r.Counter("amm.misses")
	c.cEvictions = r.Counter("amm.evictions")
	c.hFault = r.Histogram("amm.fault_ns", metrics.IOLatencyBuckets())
	c.gPinned = r.Gauge("amm.pinned_frames")
}

// pinLocked adds one pin to f, maintaining the lock-free pinned-frame
// count on the 0→1 transition. Caller holds c.mu.
func (c *Cache) pinLocked(f *frame) {
	f.pins++
	if f.pins == 1 {
		c.pinned.Add(1)
		c.gPinned.Add(1)
	}
}

// unpinLocked removes one pin from f, maintaining the lock-free
// pinned-frame count on the 1→0 transition. Caller holds c.mu.
func (c *Cache) unpinLocked(f *frame) {
	f.pins--
	if f.pins == 0 {
		c.pinned.Add(-1)
		c.gPinned.Add(-1)
	}
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Get returns the cached page contents, faulting it in from backing
// storage on a miss, and pins the frame. The returned slice aliases the
// frame buffer and is valid until Release; callers must not write to it.
// The boolean reports whether the access was a hit.
func (c *Cache) Get(id storage.PageID) ([]byte, bool, error) {
	return c.GetVia(id, nil)
}

// GetVia is Get with the fault IO routed through the given store
// (nil selects the cache's backing store). The executor's workers pass
// stores that count the faults they cause, so each query is charged for
// its own misses; the cached frames stay shared.
func (c *Cache) GetVia(id storage.PageID, backing storage.Store) ([]byte, bool, error) {
	if backing == nil {
		backing = c.backing
	}
	c.mu.Lock()
	for {
		fi, ok := c.index[id]
		if !ok {
			break
		}
		f := &c.frames[fi]
		if !f.loading {
			c.pinLocked(f)
			f.refbit = true
			c.stats.Hits++
			c.cHits.Inc()
			c.mu.Unlock()
			return f.data, true, nil
		}
		// Another goroutine is faulting this page in: wait for the
		// frame to settle, then re-check from scratch (the load may
		// have failed and removed the index entry).
		c.loaded.Wait()
	}
	c.stats.Misses++
	c.cMisses.Inc()
	fi, err := c.evictLocked()
	if err != nil {
		c.mu.Unlock()
		return nil, false, err
	}
	f := &c.frames[fi]
	f.id = id
	f.valid = true
	f.loading = true
	c.pinLocked(f) // evictLocked only yields unpinned frames
	f.refbit = true
	c.index[id] = fi
	// Drop the cache lock during IO so hits on other pages proceed.
	// The pin keeps the frame from eviction, the loading flag keeps
	// concurrent readers of the same page off the buffer until the
	// data is published.
	c.mu.Unlock()
	var faultStart time.Time
	if c.hFault != nil {
		faultStart = time.Now()
	}
	rerr := backing.ReadPage(id, f.data)
	if c.hFault != nil {
		c.hFault.Observe(time.Since(faultStart).Nanoseconds())
	}
	c.mu.Lock()
	f.loading = false
	if rerr != nil {
		f.valid = false
		c.unpinLocked(f)
		delete(c.index, id)
	}
	c.loaded.Broadcast()
	c.mu.Unlock()
	if rerr != nil {
		return nil, false, fmt.Errorf("amm: fault page %d: %w", id, rerr)
	}
	return f.data, false, nil
}

// Release unpins a page previously returned by Get.
func (c *Cache) Release(id storage.PageID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if fi, ok := c.index[id]; ok && c.frames[fi].pins > 0 {
		c.unpinLocked(&c.frames[fi])
		if c.frames[fi].pins == 0 {
			c.loaded.Broadcast() // Invalidate may be waiting for readers to drain
		}
	}
}

// PinnedFrames returns the number of frames with a nonzero pin count —
// zero whenever no Get is outstanding. The count is maintained on pin
// transitions and read lock-free, so monitoring it never contends with
// a fault in progress. Fault-injection tests use it to prove that error
// paths leave no frame pinned.
func (c *Cache) PinnedFrames() int {
	return int(c.pinned.Load())
}

// evictLocked finds a victim frame via CLOCK and returns its index,
// or ErrNoEvictableFrame when every frame is pinned or loading. The
// caller holds c.mu.
func (c *Cache) evictLocked() (int, error) {
	for sweep := 0; sweep < 2*len(c.frames); sweep++ {
		f := &c.frames[c.hand]
		idx := c.hand
		c.hand = (c.hand + 1) % len(c.frames)
		if !f.valid {
			return idx, nil
		}
		if f.pins > 0 || f.loading {
			continue
		}
		if f.refbit {
			f.refbit = false
			continue
		}
		delete(c.index, f.id)
		f.valid = false
		c.stats.Evictions++
		c.cEvictions.Inc()
		return idx, nil
	}
	return 0, ErrNoEvictableFrame
}

// Invalidate drops the given pages from the cache. The merge calls it
// before returning a retired SSCG's pages to the store freelist, so a
// recycled page id can never serve stale bytes. It waits for in-flight
// pins and loads on those pages to drain (by the time a group is freed
// no reader should reference it, so the wait is normally instant).
func (c *Cache) Invalidate(ids []storage.PageID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, id := range ids {
		for {
			fi, ok := c.index[id]
			if !ok {
				break
			}
			f := &c.frames[fi]
			if f.loading || f.pins > 0 {
				c.loaded.Wait()
				continue // re-check: the frame may have moved or settled
			}
			delete(c.index, id)
			f.valid = false
			break
		}
	}
}
