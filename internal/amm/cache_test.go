package amm

import (
	"sync"
	"testing"

	"tierdb/internal/metrics"
	"tierdb/internal/storage"
)

func newTestStore(t *testing.T, pages int) (storage.Store, []storage.PageID) {
	t.Helper()
	s := storage.NewMemStore()
	ids := make([]storage.PageID, pages)
	buf := make([]byte, storage.PageSize)
	for i := range ids {
		id, err := s.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
		buf[0] = byte(i)
		if err := s.WritePage(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	return s, ids
}

func TestCacheHitMiss(t *testing.T) {
	s, ids := newTestStore(t, 4)
	c, err := New(2, s)
	if err != nil {
		t.Fatal(err)
	}
	data, hit, err := c.Get(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("first access was a hit")
	}
	if data[0] != 0 {
		t.Errorf("page content = %d, want 0", data[0])
	}
	c.Release(ids[0])
	_, hit, err = c.Get(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Error("second access missed")
	}
	c.Release(ids[0])
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 1 hit, 1 miss", st)
	}
	if st.HitRate() != 0.5 {
		t.Errorf("hit rate = %g, want 0.5", st.HitRate())
	}
}

func TestCacheEvictsLeastRecentlyUsed(t *testing.T) {
	s, ids := newTestStore(t, 4)
	c, _ := New(2, s)
	for _, id := range ids[:3] { // touch 0,1,2 through a 2-frame cache
		if _, _, err := c.Get(id); err != nil {
			t.Fatal(err)
		}
		c.Release(id)
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Error("no evictions recorded")
	}
	// Page 2 must be resident; page 0 must have been evicted.
	_, hit, _ := c.Get(ids[2])
	if !hit {
		t.Error("most recent page not resident")
	}
	c.Release(ids[2])
}

func TestCachePinnedFramesNotEvicted(t *testing.T) {
	s, ids := newTestStore(t, 4)
	c, _ := New(2, s)
	// A Get holds its pin until the matching Release.
	if _, _, err := c.Get(ids[0]); err != nil {
		t.Fatal(err)
	}
	// Stream the remaining pages through the other frame.
	for i := 1; i < 4; i++ {
		if _, _, err := c.Get(ids[i]); err != nil {
			t.Fatal(err)
		}
		c.Release(ids[i])
	}
	_, hit, _ := c.Get(ids[0])
	if !hit {
		t.Error("pinned page was evicted")
	}
	c.Release(ids[0])
	c.Release(ids[0])
}

func TestCacheAllPinnedFails(t *testing.T) {
	s, ids := newTestStore(t, 3)
	c, _ := New(2, s)
	if _, _, err := c.Get(ids[0]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Get(ids[1]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Get(ids[2]); err != ErrNoEvictableFrame {
		t.Errorf("err = %v, want ErrNoEvictableFrame", err)
	}
}

// TestCacheDrop drops a released page with Invalidate: the next Get
// misses.
func TestCacheDrop(t *testing.T) {
	s, ids := newTestStore(t, 2)
	c, _ := New(2, s)
	if _, _, err := c.Get(ids[0]); err != nil {
		t.Fatal(err)
	}
	c.Release(ids[0])
	c.Invalidate(ids[:1])
	_, hit, err := c.Get(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("Invalidate left page resident")
	}
	c.Release(ids[0])
}

func TestCacheRejectsBadConfig(t *testing.T) {
	if _, err := New(0, storage.NewMemStore()); err == nil {
		t.Error("accepted zero frames")
	}
}

func TestCacheGetMissingPageFails(t *testing.T) {
	s := storage.NewMemStore()
	c, _ := New(2, s)
	if _, _, err := c.Get(5); err == nil {
		t.Error("Get of unallocated page succeeded")
	}
	// A failed fault must not leave a phantom index entry.
	if _, _, err := c.Get(5); err == nil {
		t.Error("second Get of unallocated page succeeded")
	}
}

func TestCacheConcurrent(t *testing.T) {
	s, ids := newTestStore(t, 32)
	c, _ := New(8, s)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				id := ids[(g*7+i*13)%len(ids)]
				data, _, err := c.Get(id)
				if err != nil {
					t.Error(err)
					return
				}
				if data[0] != byte(int(id)) {
					t.Errorf("page %d content mismatch: %d", id, data[0])
					c.Release(id)
					return
				}
				c.Release(id)
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses != 8*500 {
		t.Errorf("accesses = %d, want %d", st.Hits+st.Misses, 8*500)
	}
}

// TestCacheObserve drives an observed cache through hits, misses and
// evictions and checks the registry instruments agree with Stats(),
// that the fault-latency histogram saw every miss, and that the
// lock-free pinned-frame count tracks pin/unpin transitions exactly.
func TestCacheObserve(t *testing.T) {
	s, ids := newTestStore(t, 4)
	c, err := New(2, s)
	if err != nil {
		t.Fatal(err)
	}
	r := metrics.NewRegistry()
	c.Observe(r)

	// Miss, hit (double-pinned), then walk all pages to force evictions.
	if _, _, err := c.Get(ids[0]); err != nil {
		t.Fatal(err)
	}
	if c.PinnedFrames() != 1 {
		t.Errorf("pinned = %d, want 1", c.PinnedFrames())
	}
	if _, _, err := c.Get(ids[0]); err != nil {
		t.Fatal(err)
	}
	if c.PinnedFrames() != 1 {
		t.Errorf("pinned after re-pin = %d, want 1 (same frame)", c.PinnedFrames())
	}
	c.Release(ids[0])
	if c.PinnedFrames() != 1 {
		t.Errorf("pinned after first release = %d, want 1", c.PinnedFrames())
	}
	c.Release(ids[0])
	if c.PinnedFrames() != 0 {
		t.Errorf("pinned after full release = %d, want 0", c.PinnedFrames())
	}
	for _, id := range ids {
		if _, _, err := c.Get(id); err != nil {
			t.Fatal(err)
		}
		c.Release(id)
	}

	st := c.Stats()
	snap := r.Snapshot()
	if got := snap.Counters["amm.hits"]; got != st.Hits {
		t.Errorf("amm.hits = %d, stats say %d", got, st.Hits)
	}
	if got := snap.Counters["amm.misses"]; got != st.Misses {
		t.Errorf("amm.misses = %d, stats say %d", got, st.Misses)
	}
	if got := snap.Counters["amm.evictions"]; got != st.Evictions {
		t.Errorf("amm.evictions = %d, stats say %d", got, st.Evictions)
	}
	if st.Evictions == 0 {
		t.Error("walk caused no evictions; test is not exercising eviction")
	}
	h := snap.Histograms["amm.fault_ns"]
	if h.Count != st.Misses {
		t.Errorf("fault histogram saw %d faults, want %d", h.Count, st.Misses)
	}
	g := snap.Gauges["amm.pinned_frames"]
	if g.Value != 0 || g.Max < 1 {
		t.Errorf("pinned gauge = %+v, want value 0 with max >= 1", g)
	}
}
