package amm

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"tierdb/internal/storage"
)

// TestCacheConcurrentStress hammers Get/Release/Stats/Invalidate from
// many goroutines against a cache much smaller than the page set, under
// the race detector. Every Get must observe the page's one true
// content, pin counts must balance out to zero, and no page content may
// be torn.
func TestCacheConcurrentStress(t *testing.T) {
	const (
		nPages     = 64
		nFrames    = 8
		goroutines = 16
		opsPerG    = 300
	)
	store := storage.NewMemStore()
	fill := func(page int) []byte {
		return bytes.Repeat([]byte{byte(page)}, storage.PageSize)
	}
	for i := 0; i < nPages; i++ {
		id, err := store.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		if err := store.WritePage(id, fill(i)); err != nil {
			t.Fatal(err)
		}
	}
	cache, err := New(nFrames, store)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for op := 0; op < opsPerG; op++ {
				page := rng.Intn(nPages)
				id := storage.PageID(page)
				switch rng.Intn(10) {
				case 0:
					_ = cache.Stats()
					_ = cache.PinnedFrames()
				case 1:
					cache.Invalidate([]storage.PageID{id})
				default:
					data, _, err := cache.Get(id)
					if err != nil {
						if errors.Is(err, ErrNoEvictableFrame) {
							continue // transient: all frames pinned by peers
						}
						t.Errorf("Get(%d): %v", page, err)
						return
					}
					// Spot-check the pinned buffer: any torn read or
					// misrouted frame surfaces here (and as a race).
					if data[0] != byte(page) || data[len(data)-1] != byte(page) {
						t.Errorf("Get(%d) returned frame of page %d", page, data[0])
						cache.Release(id)
						return
					}
					cache.Release(id)
				}
			}
		}(g)
	}
	wg.Wait()

	if pinned := cache.PinnedFrames(); pinned != 0 {
		t.Errorf("%d frames still pinned after all goroutines released", pinned)
	}
	// The cache only reads: the store's pages are as they were filled.
	buf := make([]byte, storage.PageSize)
	for i := 0; i < nPages; i++ {
		if err := store.ReadPage(storage.PageID(i), buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, fill(i)) {
			t.Errorf("page %d corrupted after stress", i)
		}
	}
	stats := cache.Stats()
	if stats.Hits+stats.Misses == 0 {
		t.Error("stress run recorded no cache accesses")
	}
}
