// Package ring is the one bounded lock-free ring buffer behind the
// query-trace rings (/traces, the slow-query log) and the span ring
// (/trace/{id}).
package ring

import (
	"sort"
	"sync/atomic"
)

// Ring keeps the most recent entries added to it. Writers claim a slot
// with one atomic add and publish the entry with one atomic pointer
// store; the ring never holds more than its capacity — older entries
// are overwritten. Readers get a point-in-time copy via Snapshot. A nil
// *Ring is valid and records nothing, so call sites need no branches.
type Ring[T any] struct {
	slots []atomic.Pointer[T]
	next  atomic.Uint64
	seq   func(*T) *uint64
}

// New builds a ring holding up to capacity entries (minimum 1). seq
// locates the field of an entry that Add stamps with the entry's
// position in the add sequence (monotone, starts at 0); it survives
// wrap-around, so consumers can tell how many entries were dropped
// between two snapshots.
func New[T any](capacity int, seq func(*T) *uint64) *Ring[T] {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring[T]{slots: make([]atomic.Pointer[T], capacity), seq: seq}
}

// Add stores e (stamping its sequence number) into the next slot,
// overwriting the oldest entry once the ring is full. No-op on a nil
// ring or entry.
func (r *Ring[T]) Add(e *T) {
	if r == nil || e == nil {
		return
	}
	n := r.next.Add(1) - 1
	*r.seq(e) = n
	r.slots[n%uint64(len(r.slots))].Store(e)
}

// Cap returns the ring's capacity (0 on nil).
func (r *Ring[T]) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.slots)
}

// Added returns the total number of entries ever added (0 on nil);
// entries beyond Cap have been overwritten.
func (r *Ring[T]) Added() uint64 {
	if r == nil {
		return 0
	}
	return r.next.Load()
}

// Snapshot returns the ring's current entries, newest first, at most
// Cap of them. Concurrent writers may overwrite slots while the
// snapshot is taken; each returned entry is still internally consistent
// (the pointer swap is atomic and entries are not modified after Add),
// but the set may mix generations.
func (r *Ring[T]) Snapshot() []*T {
	if r == nil {
		return nil
	}
	out := make([]*T, 0, len(r.slots))
	for i := range r.slots {
		if e := r.slots[i].Load(); e != nil {
			out = append(out, e)
		}
	}
	// The sequence number is unique, so the order is total.
	sort.Slice(out, func(a, b int) bool { return *r.seq(out[a]) > *r.seq(out[b]) })
	return out
}
