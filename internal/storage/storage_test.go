package storage

import (
	"bytes"
	"errors"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"tierdb/internal/device"
)

func testStoreRoundTrip(t *testing.T, s Store) {
	t.Helper()
	id1, err := s.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	id2, err := s.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if id1 == id2 {
		t.Fatalf("Allocate returned duplicate id %d", id1)
	}
	if s.NumPages() != 2 {
		t.Fatalf("NumPages = %d, want 2", s.NumPages())
	}
	w := make([]byte, PageSize)
	for i := range w {
		w[i] = byte(i % 251)
	}
	if err := s.WritePage(id2, w); err != nil {
		t.Fatal(err)
	}
	r := make([]byte, PageSize)
	if err := s.ReadPage(id2, r); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w, r) {
		t.Error("page round trip corrupted data")
	}
	// Fresh page reads back zeroed.
	if err := s.ReadPage(id1, r); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r, make([]byte, PageSize)) {
		t.Error("fresh page not zeroed")
	}
	// Out-of-range and bad buffer sizes error.
	if err := s.ReadPage(99, r); !errors.Is(err, ErrPageOutOfRange) {
		t.Errorf("out-of-range read: %v", err)
	}
	if err := s.WritePage(99, w); !errors.Is(err, ErrPageOutOfRange) {
		t.Errorf("out-of-range write: %v", err)
	}
	if err := s.ReadPage(id1, make([]byte, 10)); err == nil {
		t.Error("short buffer accepted")
	}
	if err := s.WritePage(id1, make([]byte, 10)); err == nil {
		t.Error("short write buffer accepted")
	}
}

func TestMemStore(t *testing.T) {
	testStoreRoundTrip(t, NewMemStore())
}

func TestFileStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	s, err := NewFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	testStoreRoundTrip(t, s)
	if s.Path() != path {
		t.Errorf("Path = %q, want %q", s.Path(), path)
	}
}

func TestMemStoreConcurrent(t *testing.T) {
	s := NewMemStore()
	const pages = 64
	ids := make([]PageID, pages)
	for i := range ids {
		id, err := s.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, PageSize)
			for i := 0; i < 200; i++ {
				id := ids[(g*31+i)%pages]
				for j := range buf {
					buf[j] = byte(g)
				}
				if err := s.WritePage(id, buf); err != nil {
					t.Error(err)
					return
				}
				if err := s.ReadPage(id, buf); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestTimedStoreChargesClock(t *testing.T) {
	var clock Clock
	ts := NewTimedStore(NewMemStore(), device.XPoint, &clock)
	id, err := ts.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	const n = 100
	for i := 0; i < n; i++ {
		if err := ts.ReadPage(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	want := device.XPoint.RandomReadTime(n, 1)
	got := clock.Elapsed()
	if got < want*9/10 || got > want*11/10 {
		t.Errorf("clock = %v, want ~%v", got, want)
	}
	if clock.Reads() != n {
		t.Errorf("Reads = %d, want %d", clock.Reads(), n)
	}
	clock.Reset()
	if clock.Elapsed() != 0 || clock.Reads() != 0 {
		t.Error("Reset did not zero the clock")
	}
}

func TestTimedStoreWriteCharges(t *testing.T) {
	var clock Clock
	ts := NewTimedStore(NewMemStore(), device.CSSD, &clock)
	id, _ := ts.Allocate()
	buf := make([]byte, PageSize)
	if err := ts.WritePage(id, buf); err != nil {
		t.Fatal(err)
	}
	if clock.Elapsed() < device.CSSD.WriteLatency {
		t.Errorf("write charged %v, want >= %v", clock.Elapsed(), device.CSSD.WriteLatency)
	}
}

func TestTimedStoreThreads(t *testing.T) {
	var clock Clock
	mem := NewMemStore()
	ts := NewTimedStore(mem, device.HDD, &clock)
	id, _ := ts.Allocate()
	buf := make([]byte, PageSize)
	if err := ts.ReadPage(id, buf); err != nil {
		t.Fatal(err)
	}
	qd1 := clock.Elapsed()
	clock.Reset()
	// Eight streams reading one page each: the clock advances by one
	// read at queue depth 8.
	if d := ts.ChargeReads(8, 8); d != device.HDD.RandomReadTime(1, 8) || clock.Elapsed() != d {
		t.Errorf("ChargeReads(8, 8) = %v (clock %v), want %v", d, clock.Elapsed(), device.HDD.RandomReadTime(1, 8))
	}
	if clock.Elapsed() <= qd1 {
		t.Error("HDD concurrent read should be slower than QD1")
	}
	if clock.Reads() != 8 {
		t.Errorf("Reads = %d, want 8", clock.Reads())
	}
	if ts.Profile().Name != "HDD" {
		t.Errorf("Profile = %q", ts.Profile().Name)
	}
	if ts.Clock() != &clock {
		t.Error("Clock accessor mismatch")
	}
	var elapsed time.Duration = ts.Clock().Elapsed()
	_ = elapsed
}
