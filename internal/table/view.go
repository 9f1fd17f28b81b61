package table

import (
	"fmt"
	"sync/atomic"

	"tierdb/internal/column"
	"tierdb/internal/delta"
	"tierdb/internal/dict"
	"tierdb/internal/histogram"
	"tierdb/internal/mvcc"
	"tierdb/internal/sscg"
	"tierdb/internal/value"
)

// epoch ties the lifetime of a main partition's SSCG pages to the
// readers that may still touch them. The table holds one reference for
// the current epoch; every pinned View holds another. When a merge swap
// retires an epoch the table's reference drops, and the last reader to
// release its View returns the group's pages to the store freelist.
type epoch struct {
	refs  atomic.Int64
	group *sscg.Group
}

func newEpoch(g *sscg.Group) *epoch {
	e := &epoch{group: g}
	e.refs.Store(1)
	return e
}

// release drops one reference and frees the group's pages when the last
// reference drains. Freeing is freelist metadata plus cache
// invalidation; an error would indicate a double free and is ignored
// here because release runs on reader unwind paths with no caller to
// report to (the storage layer's ErrPageFreed guard catches any
// use-after-free in tests).
func (e *epoch) release() {
	if e.refs.Add(-1) == 0 && e.group != nil {
		_ = e.group.Free()
	}
}

// View is one consistent reading of the table's structure: the main
// partition, the frozen delta of an in-flight merge (nil otherwise) and
// the active delta, captured together under the table's read lock. A
// query pins one View and runs entirely against it, so an online merge
// swapping the main partition mid-query can never tear the query's
// reads. The main and the frozen delta are immutable, which is what
// makes holding them safe.
//
// The active delta is the one container shared with writers: it grows
// while the View is held. activeRows bounds the View to the rows that
// physically existed at capture time — later appends include merge-swap
// re-basing of frozen rows, which a View that still sees the frozen
// delta must not count twice.
//
// A View obtained from Pin also holds a reference on the main's epoch,
// which keeps its SSCG pages allocated until Release. The table's own
// accessors use unpinned Views (peek) for DRAM-only reads.
type View struct {
	main       *main
	frozen     *delta.Partition // nil when no merge is in flight
	frozenRows int
	active     *delta.Partition
	activeRows int
}

// viewLocked captures the current structure; caller holds t.mu.
func (t *Table) viewLocked() View {
	return View{main: t.main, frozen: t.frozen, frozenRows: t.frozenRows, active: t.delta, activeRows: t.delta.Rows()}
}

// peek captures the current structure without pinning it. The result
// may be read after the lock is dropped, but only its DRAM state: its
// SSCG pages can be freed at any time. It carries no activeRows bound,
// so it must not be used to combine partitions into an answer; leaving
// the bound out also keeps the statistics accessors the executor calls
// per query off the active delta's lock, which inserts contend for.
func (t *Table) peek() View {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return View{main: t.main, frozen: t.frozen, frozenRows: t.frozenRows, active: t.delta}
}

// Pin captures the table's current structure into a View and takes a
// reference on its reclamation epoch. Callers must Release the View
// exactly once.
func (t *Table) Pin() *View {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.pinLocked()
}

// PinLatest is Pin for a reader outside a transaction: it also returns
// the latest commit timestamp, read under the same lock hold, for the
// reader's snapshot. A merge swap purges the rows dead at the oldest
// registered snapshot, and such a reader registers none: a snapshot read
// before the pin could predate a swap the pinned structure reflects, and
// miss the rows it purged. One read under the pin's lock is never older
// than a swap the View shows.
func (t *Table) PinLatest() (*View, mvcc.Timestamp) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.pinLocked(), t.mgr.LastCommit()
}

// pinLocked captures the current structure and takes a reference on its
// epoch; the caller holds t.mu.
func (t *Table) pinLocked() *View {
	v := t.viewLocked()
	v.main.epoch.refs.Add(1)
	return &v
}

// Release drops the View's epoch reference; the View must not be used
// afterwards. The last release of a retired epoch frees its SSCG pages.
func (v *View) Release() {
	if v.main != nil {
		v.main.epoch.release()
		v.main = nil
	}
}

// MainRows returns the number of main-partition rows in the snapshot.
func (v *View) MainRows() int { return v.main.rows }

// MRC returns the snapshot's memory-resident column, or nil.
func (v *View) MRC(col int) *column.MRC {
	if col < 0 || col >= len(v.main.mrcs) {
		return nil
	}
	return v.main.mrcs[col]
}

// Group returns the snapshot's SSCG, or nil if every column is an MRC.
func (v *View) Group() *sscg.Group { return v.main.group }

// GroupField returns the SSCG field index of a schema column, or -1.
func (v *View) GroupField(col int) int {
	if col < 0 || col >= len(v.main.groupIdx) {
		return -1
	}
	return v.main.groupIdx[col]
}

// Index returns the snapshot's main-partition index for col, or nil.
func (v *View) Index(col int) *dict.Index { return v.main.indexes[col] }

// MainVersions returns the snapshot's main-partition version store.
func (v *View) MainVersions() *mvcc.Versions { return v.main.versions }

// Frozen returns the frozen delta of an in-flight merge, or nil.
func (v *View) Frozen() *delta.Partition { return v.frozen }

// FrozenRows returns the physical row count of the frozen delta (0
// without one).
func (v *View) FrozenRows() int { return v.frozenRows }

// Active returns the active delta partition. Scans must respect
// ActiveRows: the partition keeps growing after the pin.
func (v *View) Active() *delta.Partition { return v.active }

// ActiveRows bounds the View to the active-delta rows that existed at
// pin time. Rows appended later are either invisible at any snapshot
// the View serves or re-based frozen rows the View already sees through
// Frozen.
func (v *View) ActiveRows() int { return v.activeRows }

// DistinctCount estimates the number of distinct values in a column:
// the main partition's exact count (from its histogram build) or a
// delta's running count, whichever is largest; at least 1, and 0 for a
// column outside the schema.
func (v *View) DistinctCount(col int) int {
	if col < 0 || col >= len(v.main.hists) {
		return 0
	}
	n := max(v.active.DistinctCount(col), 1)
	if h := v.main.hists[col]; h != nil {
		n = max(n, h.DistinctCount())
	}
	if v.frozen != nil {
		n = max(n, v.frozen.DistinctCount(col))
	}
	return n
}

// Selectivity returns the paper's selectivity estimate 1/n for the
// column (Section II-B).
func (v *View) Selectivity(col int) float64 {
	return 1 / float64(v.DistinctCount(col))
}

// Histogram returns the main partition's equi-depth histogram of col,
// or nil if the main partition is empty or col is outside the schema.
func (v *View) Histogram(col int) *histogram.Histogram {
	if col < 0 || col >= len(v.main.hists) {
		return nil
	}
	return v.main.hists[col]
}

// RangeSelectivity estimates the fraction of rows with lo <= col <= hi
// from the main partition's equi-depth histogram, falling back to the
// equi-predicate estimate when the main partition is empty. The bounds
// must have the column's type.
func (v *View) RangeSelectivity(col int, lo, hi value.Value) float64 {
	if h := v.Histogram(col); h != nil {
		return h.RangeSelectivity(lo, hi)
	}
	return v.Selectivity(col)
}

// locate routes a RowID — main rows first, then the frozen delta, then
// the active one — to the delta partition holding it and the position
// within. A nil partition means main row pos.
func (v *View) locate(id RowID) (*delta.Partition, int) {
	if id < uint64(v.main.rows) {
		return nil, int(id)
	}
	pos := int(id - uint64(v.main.rows))
	if v.frozen != nil {
		if pos < v.frozenRows {
			return v.frozen, pos
		}
		pos -= v.frozenRows
	}
	return v.active, pos
}

// Visible reports whether row id is visible at (snapshot, self) in this
// View.
func (v *View) Visible(id RowID, snapshot mvcc.Timestamp, self mvcc.TxID) bool {
	part, pos := v.locate(id)
	switch {
	case part == nil:
		return v.main.versions.Visible(pos, snapshot, self)
	case part == v.active && pos >= v.activeRows:
		return false
	}
	return part.Versions().Visible(pos, snapshot, self)
}

// VisibleCount returns the number of rows of the View visible at
// snapshot. A View taken before a merge swap and one taken after it
// agree: the first counts a straggler in the frozen delta and stops at
// activeRows, the second finds it re-based into the active delta.
func (v *View) VisibleCount(snapshot mvcc.Timestamp) int {
	n := v.main.versions.LiveAt(snapshot)
	if v.frozen != nil {
		n += len(v.frozen.VisibleRows(snapshot, 0))
	}
	for _, pos := range v.active.VisibleRows(snapshot, 0) {
		if int(pos) >= v.activeRows {
			break
		}
		n++
	}
	return n
}

// GetValue materializes one cell of the View (no visibility check).
func (v *View) GetValue(id RowID, col int) (value.Value, error) {
	if col < 0 || col >= len(v.main.mrcs) {
		return value.Value{}, fmt.Errorf("table %s: column %d out of range", v.main.name, col)
	}
	if part, pos := v.locate(id); part != nil {
		return part.Get(pos, col)
	}
	return v.main.value(int(id), col)
}

// GetTuple reconstructs a full row of the View.
func (v *View) GetTuple(id RowID) ([]value.Value, error) {
	if part, pos := v.locate(id); part != nil {
		return part.GetRow(pos)
	}
	return v.main.tuple(int(id))
}
