package storage

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"

	"tierdb/internal/device"
)

// embedded is a wrapper that embeds Store and overrides only ReadPage,
// as the executor's per-worker counting store does: FreePages reaches
// the wrapped store through the embedded interface.
type embedded struct {
	Store
	reads int
}

func (e *embedded) ReadPage(id PageID, buf []byte) error {
	e.reads++
	return e.Store.ReadPage(id, buf)
}

// TestStoreFreeContract runs every Store through the freelist contract:
// a freed page is unreadable, comes back zeroed from Allocate, and a
// double free or a free of an unallocated id is rejected.
func TestStoreFreeContract(t *testing.T) {
	file := func(t *testing.T) Store {
		s, err := NewFileStore(filepath.Join(t.TempDir(), "pages.db"))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	for _, tc := range []struct {
		name string
		open func(t *testing.T) Store
	}{
		{"mem", func(*testing.T) Store { return NewMemStore() }},
		{"file", file},
		{"timed/mem", func(*testing.T) Store { return NewTimedStore(NewMemStore(), device.CSSD, &Clock{}) }},
		{"timed/file", func(t *testing.T) Store { return NewTimedStore(file(t), device.CSSD, &Clock{}) }},
		{"fault", func(*testing.T) Store { return NewFaultStore(NewMemStore()) }},
		{"embedded", func(*testing.T) Store { return &embedded{Store: NewMemStore()} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.open(t)
			a, err := s.Allocate()
			if err != nil {
				t.Fatal(err)
			}
			b, err := s.Allocate()
			if err != nil {
				t.Fatal(err)
			}
			full := bytes.Repeat([]byte{0xA5}, PageSize)
			for _, id := range []PageID{a, b} {
				if err := s.WritePage(id, full); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.FreePages([]PageID{a}); err != nil {
				t.Fatalf("FreePages: %v", err)
			}
			buf := make([]byte, PageSize)
			if err := s.ReadPage(a, buf); !errors.Is(err, ErrPageFreed) {
				t.Errorf("read of a freed page: %v, want ErrPageFreed", err)
			}
			if err := s.WritePage(a, full); !errors.Is(err, ErrPageFreed) {
				t.Errorf("write of a freed page: %v, want ErrPageFreed", err)
			}
			if err := s.FreePages([]PageID{a}); !errors.Is(err, ErrPageFreed) {
				t.Errorf("double free: %v, want ErrPageFreed", err)
			}
			if err := s.FreePages([]PageID{99}); !errors.Is(err, ErrPageOutOfRange) {
				t.Errorf("free of an unallocated page: %v, want ErrPageOutOfRange", err)
			}
			got, err := s.Allocate()
			if err != nil {
				t.Fatal(err)
			}
			if got != a {
				t.Errorf("Allocate after a free = %d, want the freed page %d", got, a)
			}
			if s.NumPages() != 2 {
				t.Errorf("NumPages = %d, want 2: a freed page is reused, not appended", s.NumPages())
			}
			if err := s.ReadPage(a, buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, make([]byte, PageSize)) {
				t.Error("a recycled page is not zeroed")
			}
			if err := s.ReadPage(b, buf); err != nil || !bytes.Equal(buf, full) {
				t.Errorf("the page left allocated changed: %v", err)
			}
		})
	}
}
