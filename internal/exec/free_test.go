package exec

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"tierdb/internal/storage"
	"tierdb/internal/value"
)

// freeLog is a page store that tracks which pages are allocated and
// records every free: a page freed while not allocated, or by a caller
// other than the table's timed store, is recorded as a fault.
type freeLog struct {
	storage.Store
	mu     sync.Mutex
	live   map[storage.PageID]bool
	freed  int
	faults []string
}

func (s *freeLog) Allocate() (storage.PageID, error) {
	id, err := s.Store.Allocate()
	if err == nil {
		s.mu.Lock()
		s.live[id] = true
		s.mu.Unlock()
	}
	return id, err
}

func (s *freeLog) FreePages(ids []storage.PageID) error {
	pc := make([]uintptr, 1)
	runtime.Callers(2, pc)
	frame, _ := runtime.CallersFrames(pc).Next()
	s.mu.Lock()
	if !strings.HasSuffix(frame.Function, "storage.(*TimedStore).FreePages") {
		s.faults = append(s.faults, "freed through "+frame.Function)
	}
	for _, id := range ids {
		if !s.live[id] {
			s.faults = append(s.faults, "double free")
		}
		delete(s.live, id)
	}
	s.freed += len(ids)
	s.mu.Unlock()
	return s.Store.FreePages(ids)
}

// TestMergeFreesCanonicalGroupOnce merges a tiered table five times
// while Parallelism-4 queries read its SSCG through their workers'
// counting views. Each retired group's pages are freed once, through
// the table's own store; no worker view frees a page (the views embed
// storage.Store and so forward FreePages), and what stays allocated is
// exactly the live group.
func TestMergeFreesCanonicalGroupOnce(t *testing.T) {
	inner := &freeLog{Store: storage.NewMemStore(), live: map[storage.PageID]bool{}}
	tbl, _ := tieredTable(t, inner, nil)
	e := New(tbl, Options{Parallelism: 4, morselRows: 1024})
	q := Query{
		Predicates: []Predicate{{Column: 3, Op: Between, Value: value.NewInt(0), Hi: value.NewInt(499)}},
		Project:    []int{0, 1},
	}
	var stop atomic.Bool
	var queries atomic.Int64
	done := make(chan error, 1)
	go func() {
		for !stop.Load() {
			if _, err := e.Run(q, nil); err != nil {
				done <- err
				return
			}
			queries.Add(1)
		}
		done <- nil
	}()
	retired := 0
	for i := range 5 {
		v := tbl.Pin()
		retired += v.Group().PageCount()
		v.Release()
		rows := make([][]value.Value, 1000)
		for j := range rows {
			n := int64(20000 + i*1000 + j)
			rows[j] = []value.Value{value.NewInt(n), value.NewInt(n % 10), value.NewInt(n % 100), value.NewInt(n % 1000)}
		}
		if err := tbl.BulkAppend(rows); err != nil {
			t.Fatal(err)
		}
		if err := tbl.Merge(); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if queries.Load() == 0 {
		t.Fatal("no query ran beside the merges")
	}
	v := tbl.Pin()
	current := v.Group().PageCount()
	v.Release()
	inner.mu.Lock()
	defer inner.mu.Unlock()
	if len(inner.faults) > 0 {
		t.Fatalf("%d faulty frees, first: %s", len(inner.faults), inner.faults[0])
	}
	if inner.freed != retired {
		t.Errorf("freed %d pages, the five retired groups held %d", inner.freed, retired)
	}
	if len(inner.live) != current {
		t.Errorf("%d pages allocated after the merges, the live group holds %d", len(inner.live), current)
	}
}
