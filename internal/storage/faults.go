package storage

import (
	"errors"
	"sync/atomic"
)

// ErrInjected is the error produced by a FaultStore when a fault fires.
var ErrInjected = errors.New("storage: injected fault")

// FaultStore wraps a Store and fails operations on demand — a chaos
// testing aid used across the engine's failure-injection tests. Faults
// are armed by operation count: the Nth read (or write) after arming
// fails with ErrInjected, and subsequent operations succeed again
// (transient fault) or keep failing (sticky fault).
type FaultStore struct {
	inner Store

	readCountdown  atomic.Int64 // <0: disarmed
	writeCountdown atomic.Int64
	sticky         atomic.Bool
	readsFailed    atomic.Int64
	writesFailed   atomic.Int64
}

// NewFaultStore wraps inner with disarmed fault triggers.
func NewFaultStore(inner Store) *FaultStore {
	f := &FaultStore{inner: inner}
	f.readCountdown.Store(-1)
	f.writeCountdown.Store(-1)
	return f
}

// FailReadAfter arms the read fault: the n-th subsequent ReadPage
// fails (n=1 fails the next read). sticky keeps failing afterwards.
func (f *FaultStore) FailReadAfter(n int64, sticky bool) {
	f.readCountdown.Store(n)
	f.sticky.Store(sticky)
}

// FailWriteAfter arms the write fault.
func (f *FaultStore) FailWriteAfter(n int64, sticky bool) {
	f.writeCountdown.Store(n)
	f.sticky.Store(sticky)
}

// Disarm clears all fault triggers.
func (f *FaultStore) Disarm() {
	f.readCountdown.Store(-1)
	f.writeCountdown.Store(-1)
	f.sticky.Store(false)
}

// ReadsFailed returns how many reads were failed.
func (f *FaultStore) ReadsFailed() int64 { return f.readsFailed.Load() }

// WritesFailed returns how many writes were failed.
func (f *FaultStore) WritesFailed() int64 { return f.writesFailed.Load() }

// shouldFail decrements the countdown and reports whether this
// operation fails.
func (f *FaultStore) shouldFail(countdown *atomic.Int64) bool {
	for {
		n := countdown.Load()
		if n < 0 {
			return false
		}
		if n == 0 {
			// Countdown exhausted: sticky faults keep failing.
			return f.sticky.Load()
		}
		if countdown.CompareAndSwap(n, n-1) {
			if n == 1 {
				if !f.sticky.Load() {
					countdown.Store(-1)
				} else {
					countdown.Store(0)
				}
				return true
			}
			return false
		}
	}
}

// ReadPage implements Store.
func (f *FaultStore) ReadPage(id PageID, buf []byte) error {
	if f.shouldFail(&f.readCountdown) {
		f.readsFailed.Add(1)
		return ErrInjected
	}
	return f.inner.ReadPage(id, buf)
}

// WritePage implements Store.
func (f *FaultStore) WritePage(id PageID, buf []byte) error {
	if f.shouldFail(&f.writeCountdown) {
		f.writesFailed.Add(1)
		return ErrInjected
	}
	return f.inner.WritePage(id, buf)
}

// Allocate implements Store.
func (f *FaultStore) Allocate() (PageID, error) { return f.inner.Allocate() }

// FreePages implements Store (never faulted: freeing is in-memory
// metadata).
func (f *FaultStore) FreePages(ids []PageID) error { return f.inner.FreePages(ids) }

// NumPages implements Store.
func (f *FaultStore) NumPages() int64 { return f.inner.NumPages() }

// Close implements Store.
func (f *FaultStore) Close() error { return f.inner.Close() }
