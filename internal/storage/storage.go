// Package storage provides the paged secondary-storage abstraction used
// by SSCGs: fixed 4 KB pages addressed by PageID, with an in-memory
// store for tests and deterministic benchmarks and a file-backed store
// for real IO. A timed wrapper charges modeled device latencies to a
// virtual clock, which substitutes for the paper's physical SSD/HDD/
// 3D XPoint testbed.
package storage

import (
	"errors"
	"fmt"
	"os"
	"sync"
)

// PageSize is the fixed page size in bytes (the paper's 4 KB unit of
// secondary-storage access).
const PageSize = 4096

// PageID addresses one page within a store.
type PageID uint64

// ErrPageOutOfRange is returned when a page id is not allocated.
var ErrPageOutOfRange = errors.New("storage: page id out of range")

// ErrPageFreed is returned when a freed page is accessed or double-freed
// — a use-after-free guard for the merge's page-reclamation path.
var ErrPageFreed = errors.New("storage: page freed")

// Store is the page device interface: random page reads and writes,
// allocation of new pages and freeing of retired ones. Implementations
// must be safe for concurrent use.
type Store interface {
	// ReadPage copies page id into buf; buf must be PageSize bytes.
	ReadPage(id PageID, buf []byte) error
	// WritePage copies buf (PageSize bytes) into page id.
	WritePage(id PageID, buf []byte) error
	// Allocate returns a zeroed page: a freed one when the freelist has
	// one, a new one appended to the store otherwise.
	Allocate() (PageID, error)
	// FreePages returns pages to the freelist. The online merge frees a
	// retired SSCG's pages once no reader references it, so repeated
	// merges recycle storage instead of growing the store without
	// bound. Freeing an already-free or unallocated id is an error.
	FreePages(ids []PageID) error
	// NumPages returns the number of allocated pages.
	NumPages() int64
	// Close releases underlying resources.
	Close() error
}

func checkBuf(buf []byte) error {
	if len(buf) != PageSize {
		return fmt.Errorf("storage: buffer is %d bytes, want %d", len(buf), PageSize)
	}
	return nil
}

// MemStore is an in-memory page store. It is the default backend for
// simulations: data movement is real, device timing is modeled
// separately by the TimedStore wrapper.
type MemStore struct {
	mu    sync.RWMutex
	pages [][]byte
	free  []PageID
	freed map[PageID]bool
}

var (
	_ Store = (*MemStore)(nil)
	_ Store = (*FileStore)(nil)
	_ Store = (*TimedStore)(nil)
	_ Store = (*FaultStore)(nil)
)

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{freed: make(map[PageID]bool)} }

// ReadPage implements Store.
func (s *MemStore) ReadPage(id PageID, buf []byte) error {
	if err := checkBuf(buf); err != nil {
		return err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if int(id) >= len(s.pages) {
		return fmt.Errorf("%w: %d of %d", ErrPageOutOfRange, id, len(s.pages))
	}
	if s.freed[id] {
		return fmt.Errorf("%w: page %d is freed", ErrPageFreed, id)
	}
	copy(buf, s.pages[id])
	return nil
}

// WritePage implements Store.
func (s *MemStore) WritePage(id PageID, buf []byte) error {
	if err := checkBuf(buf); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if int(id) >= len(s.pages) {
		return fmt.Errorf("%w: %d of %d", ErrPageOutOfRange, id, len(s.pages))
	}
	if s.freed[id] {
		return fmt.Errorf("%w: page %d is freed", ErrPageFreed, id)
	}
	copy(s.pages[id], buf)
	return nil
}

// Allocate implements Store.
func (s *MemStore) Allocate() (PageID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.free); n > 0 {
		id := s.free[n-1]
		s.free = s.free[:n-1]
		delete(s.freed, id)
		clear(s.pages[id])
		return id, nil
	}
	s.pages = append(s.pages, make([]byte, PageSize))
	return PageID(len(s.pages) - 1), nil
}

// FreePages implements Store.
func (s *MemStore) FreePages(ids []PageID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range ids {
		if int(id) >= len(s.pages) {
			return fmt.Errorf("%w: %d of %d", ErrPageOutOfRange, id, len(s.pages))
		}
		if s.freed[id] {
			return fmt.Errorf("%w: page %d double-freed", ErrPageFreed, id)
		}
		s.freed[id] = true
		s.free = append(s.free, id)
	}
	return nil
}

// NumPages implements Store.
func (s *MemStore) NumPages() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return int64(len(s.pages))
}

// Close implements Store.
func (s *MemStore) Close() error { return nil }

// FileStore is a page store backed by a single file, using positional
// reads and writes. It demonstrates the real IO path of the engine.
type FileStore struct {
	mu    sync.Mutex
	f     *os.File
	n     int64
	free  []PageID
	freed map[PageID]bool
}

// NewFileStore creates (or truncates) a page file at path.
func NewFileStore(path string) (*FileStore, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: create page file: %w", err)
	}
	return &FileStore{f: f, freed: make(map[PageID]bool)}, nil
}

// checkLive verifies id is allocated and not on the freelist.
func (s *FileStore) checkLive(id PageID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if int64(id) >= s.n {
		return fmt.Errorf("%w: %d of %d", ErrPageOutOfRange, id, s.n)
	}
	if s.freed[id] {
		return fmt.Errorf("%w: page %d is freed", ErrPageFreed, id)
	}
	return nil
}

// ReadPage implements Store.
func (s *FileStore) ReadPage(id PageID, buf []byte) error {
	if err := checkBuf(buf); err != nil {
		return err
	}
	if err := s.checkLive(id); err != nil {
		return err
	}
	if _, err := s.f.ReadAt(buf, int64(id)*PageSize); err != nil {
		return fmt.Errorf("storage: read page %d: %w", id, err)
	}
	return nil
}

// WritePage implements Store.
func (s *FileStore) WritePage(id PageID, buf []byte) error {
	if err := checkBuf(buf); err != nil {
		return err
	}
	if err := s.checkLive(id); err != nil {
		return err
	}
	if _, err := s.f.WriteAt(buf, int64(id)*PageSize); err != nil {
		return fmt.Errorf("storage: write page %d: %w", id, err)
	}
	return nil
}

// Allocate implements Store.
func (s *FileStore) Allocate() (PageID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.free); n > 0 {
		id := s.free[n-1]
		s.free = s.free[:n-1]
		delete(s.freed, id)
		if _, err := s.f.WriteAt(make([]byte, PageSize), int64(id)*PageSize); err != nil {
			return 0, fmt.Errorf("storage: zero recycled page %d: %w", id, err)
		}
		return id, nil
	}
	id := PageID(s.n)
	if err := s.f.Truncate((s.n + 1) * PageSize); err != nil {
		return 0, fmt.Errorf("storage: grow page file: %w", err)
	}
	s.n++
	return id, nil
}

// FreePages implements Store.
func (s *FileStore) FreePages(ids []PageID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range ids {
		if int64(id) >= s.n {
			return fmt.Errorf("%w: %d of %d", ErrPageOutOfRange, id, s.n)
		}
		if s.freed[id] {
			return fmt.Errorf("%w: page %d double-freed", ErrPageFreed, id)
		}
		s.freed[id] = true
		s.free = append(s.free, id)
	}
	return nil
}

// NumPages implements Store.
func (s *FileStore) NumPages() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Close implements Store.
func (s *FileStore) Close() error { return s.f.Close() }
