// Online, non-blocking delta merge (paper Section II: "the delta is
// periodically merged into the main partition"; the merge here follows
// SAP HANA's online delta merge). Three phases:
//
//  1. Freeze — under a brief exclusive lock, the active delta becomes
//     the frozen merge input and a fresh active delta opens for writers.
//     The rebuild snapshot is the latest commit timestamp.
//  2. Rebuild — with NO table lock held, a shadow main partition (MRCs,
//     SSCG, version store, statistics, indexes) is built column by
//     column from the old main's dictionaries, codes and SSCG pages plus
//     the frozen delta's dictionaries, as of the snapshot (buildMain).
//     Readers and writers proceed against old main + frozen delta +
//     active delta.
//  3. Swap — after the retiring partitions quiesce (no provisional
//     inserts or delete intents), a short exclusive section replays
//     deletes that committed during the rebuild onto the shadow main,
//     re-bases frozen rows the snapshot missed into the active delta,
//     installs the shadow main by assigning Table.main, and retires
//     the old SSCG pages via the epoch protocol.
//
// Row version history is preserved across the swap (every row keeps its
// begin; carried rows keep their interval), so
// a transaction holding any open snapshot sees exactly the same rows
// before and after. RowIDs, as documented on the type, are stable
// between merges only.
package table

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"time"

	"tierdb/internal/delta"
	"tierdb/internal/mvcc"
	"tierdb/internal/value"
)

// ErrMergeInProgress is returned when a merge is requested while
// another one is between freeze and swap.
var ErrMergeInProgress = errors.New("table: merge already in progress")

// quiesceSpins bounds the optimistic (lock-free) quiescence wait before
// the swap degrades to holding the write lock while the last
// provisional writes resolve.
const quiesceSpins = 4096

// carryRow is a committed row not folded into the new main whose
// version interval may still matter to an open snapshot.
type carryRow struct {
	tuple      []value.Value
	begin, end mvcc.Timestamp
}

// mergeState is the frozen input of one merge: the structures the
// rebuild reads without holding the table lock, all immutable.
type mergeState struct {
	layout     []bool
	snapshot   mvcc.Timestamp
	old        *main
	frozen     *delta.Partition
	frozenRows int
}

// rebuilt is the shadow main partition the rebuild produces, with what
// the swap needs to reconcile it against writes that raced the rebuild:
// row i of next was old-main row keep[i], or, past len(keep), frozen row
// fold[i-len(keep)].
type rebuilt struct {
	next  *main
	keep  []uint32
	fold  []uint32
	carry []carryRow
}

// Merge folds the delta into the main partition under the current
// layout. The merge is online: queries and data modifications proceed
// throughout; only the freeze and the final swap take the table lock
// briefly. Concurrent Merge/ApplyLayout calls fail with
// ErrMergeInProgress.
func (t *Table) Merge() error {
	return t.mergeOnline(nil)
}

// ApplyLayout sets the column layout and rebuilds the main partition
// accordingly (merging the delta in the same online pass). layout[i] =
// true keeps column i as a DRAM-resident MRC; false places it in the
// SSCG.
func (t *Table) ApplyLayout(layout []bool) error {
	if len(layout) != t.schema.Len() {
		return fmt.Errorf("table %s: layout has %d entries, want %d", t.name, len(layout), t.schema.Len())
	}
	return t.mergeOnline(layout)
}

// mergeOnline runs the three-phase online merge. A nil layout keeps the
// current one. On rebuild failure the table keeps serving the old main
// plus both deltas; the frozen delta is retained so a retry folds it.
func (t *Table) mergeOnline(layout []bool) error {
	start := time.Now()
	st, err := t.freezeForMerge(layout)
	if err != nil {
		return err
	}
	if h := t.hookAfterFreeze; h != nil {
		h()
	}
	b, err := t.rebuild(st)
	if err != nil {
		t.mu.Lock()
		t.merging = false
		t.mu.Unlock()
		t.cMergeFails.Inc()
		return err
	}
	if h := t.hookBeforeSwap; h != nil {
		h()
	}
	if err := t.swapMain(st, b); err != nil {
		return err
	}
	// The table's reference on the old main's epoch drops after the
	// swap's lock: its SSCG pages return to the freelist now, or when the
	// last View pinned before the swap drains.
	st.old.epoch.release()
	t.hMergeNs.Observe(time.Since(start).Nanoseconds())
	return nil
}

// freezeForMerge is phase 1: under a brief exclusive lock, freeze the
// active delta (or reuse the frozen delta a failed merge left behind),
// open a fresh active delta, and capture the rebuild inputs.
func (t *Table) freezeForMerge(layout []bool) (*mergeState, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.merging {
		return nil, ErrMergeInProgress
	}
	if layout == nil {
		layout = t.main.layout
	}
	if t.frozen == nil {
		t.frozen = t.delta
		t.frozen.Freeze()
		t.frozenRows = t.frozen.Rows()
		t.delta = delta.New(t.schema)
		t.delta.Observe(t.registry) // fresh partition, fresh handles
	}
	t.merging = true
	t.gFrozenRows.Set(int64(t.frozenRows))
	t.gActiveRows.Set(int64(t.delta.Rows()))
	return &mergeState{
		layout:     layout,
		snapshot:   t.mgr.LastCommit(),
		old:        t.main,
		frozen:     t.frozen,
		frozenRows: t.frozenRows,
	}, nil
}

// rebuild is phase 2: construct the shadow main partition from the old
// main and the frozen delta as of the snapshot, holding no table lock.
// Visibility at a fixed snapshot is stable under concurrent commits
// (late deletes stamp end > snapshot; late inserts stamp begin >
// snapshot), so the fold set is deterministic. The old main's kept rows
// are its rows visible at the snapshot, which its version store answers
// from the shared begin and the exceptions; only a gap in them — a
// carried row — is read on its own, and as a tuple.
func (t *Table) rebuild(st *mergeState) (*rebuilt, error) {
	ov := st.old.versions
	b := &rebuilt{
		keep: ov.VisibleIn(0, st.old.rows, st.snapshot, 0, make([]uint32, 0, st.old.rows)),
		fold: st.frozen.VisibleRows(st.snapshot, 0),
	}
	kept := b.keep
	for pos := 0; pos < st.old.rows; pos++ {
		if len(kept) > 0 && int(kept[0]) == pos {
			kept = kept[1:]
			continue
		}
		rs := ov.State(pos)
		if rs.Begin == 0 || rs.Begin == mvcc.Infinity {
			continue // never-committed row (not possible in main; defensive)
		}
		// Invisible at the snapshot but committed: carry the version
		// interval so snapshots that still need it survive the swap.
		tuple, err := st.old.tuple(pos)
		if err != nil {
			return nil, fmt.Errorf("table %s: merge read main row %d: %w", t.name, pos, err)
		}
		b.carry = append(b.carry, carryRow{tuple: tuple, begin: rs.Begin, end: rs.End})
	}
	// Each row keeps its commit history, so every open snapshot keeps its
	// exact visibility across the swap; deletes that commit during the
	// rebuild are replayed by the swap. The kept shared rows stay shared;
	// only the begins of the other kept rows and the folded ones are
	// listed.
	shared, base := ov.Shared()
	k, _ := slices.BinarySearch(b.keep, uint32(shared))
	tail := ov.Begins(b.keep[k:], make([]mvcc.Timestamp, 0, len(b.keep)-k+len(b.fold)))
	tail = st.frozen.Versions().Begins(b.fold, tail)
	var err error
	b.next, err = t.buildMain(st.layout, source{old: st.old, keep: b.keep, frozen: st.frozen, fold: b.fold,
		versions: mvcc.NewVersionsAt(k, base, tail)})
	return b, err
}

// swapMain is phase 3: wait for the retiring partitions to quiesce,
// then atomically install the shadow main under the write lock,
// reconciling writes that landed during the rebuild. The lock is held
// for work in the old main's deletes that raced the rebuild and in the
// frozen delta's rows, never a step per main row.
func (t *Table) swapMain(st *mergeState, b *rebuilt) error {
	ov, fv := st.old.versions, st.frozen.Versions()
	// Quiescence: no provisional insert or delete intent may remain on
	// the retiring partitions, otherwise its commit callback could fire
	// after the reconciliation below and be lost. Intents are only
	// created under the table's read lock, so holding the write lock
	// makes the settled state stable. Spin optimistically off-lock
	// first; under sustained writer pressure degrade to holding the
	// lock while the last writers resolve (commits touch only version
	// stores, never the table lock, so they proceed).
	for attempt := 0; ; attempt++ {
		if ov.Unsettled() || fv.Unsettled() {
			if attempt > quiesceSpins {
				t.mu.Lock()
				for ov.Unsettled() || fv.Unsettled() {
					time.Sleep(20 * time.Microsecond)
				}
				break
			}
			runtime.Gosched()
			continue
		}
		t.mu.Lock()
		if !ov.Unsettled() && !fv.Unsettled() {
			break
		}
		t.mu.Unlock()
	}
	defer t.mu.Unlock()

	// Replay deletes that committed against the old locations while the
	// rebuild ran: the rows whose end moved, stamped under one lock hold.
	// A kept row was live at the snapshot, so its end moved if it now
	// has one past the snapshot; the old main finds those rows from its
	// exceptions and dense rows.
	deleted, deletedAt := ov.DeletedAfter(st.snapshot)
	frozenBegin, frozenEnd := fv.Stamps()
	var moved []int
	var ends []mvcc.Timestamp
	for i, pos := range deleted {
		if next, ok := slices.BinarySearch(b.keep, uint32(pos)); ok {
			moved, ends = append(moved, next), append(ends, deletedAt[i])
		}
	}
	for i, pos := range b.fold {
		if e := frozenEnd[pos]; e != mvcc.Infinity {
			moved, ends = append(moved, len(b.keep)+i), append(ends, e)
		}
	}
	b.next.versions.SetEnds(moved, ends)

	// A failed swap is a failed merge: the old main keeps serving and the
	// frozen delta is retained for the retry.
	fail := func(err error) error {
		t.merging = false
		b.next.epoch.release()
		t.cMergeFails.Inc()
		return fmt.Errorf("table %s: merge swap: %w", t.name, err)
	}

	// Indexes created after the freeze exist on the current main (a copy
	// of st.old, see installIndex) but not in the rebuilt set.
	if err := b.next.addIndexesOf(t.main, b.next.column); err != nil {
		return fail(err)
	}

	// Re-base rows the shadow main missed into the active delta with
	// their original timestamps: frozen rows committed after the
	// snapshot (live or already deleted again) and carried old-main
	// rows. Rows dead at the oldest active snapshot are invisible to
	// every current and future reader and are purged instead. An error
	// here is unreachable with a matching schema.
	watermark := t.mgr.OldestActiveSnapshot()
	stragglers := 0
	adopt := func(tuple []value.Value, begin, end mvcc.Timestamp) error {
		if end <= watermark {
			return nil
		}
		if _, err := t.delta.AdoptRow(tuple, begin, end); err != nil {
			return err
		}
		stragglers++
		return nil
	}
	folded := b.fold
	for pos := 0; pos < st.frozenRows; pos++ {
		if len(folded) > 0 && int(folded[0]) == pos {
			folded = folded[1:]
			continue
		}
		begin := frozenBegin[pos]
		if begin == 0 || begin == mvcc.Infinity {
			continue // aborted insert (quiescence rules out pending state)
		}
		tuple, err := st.frozen.GetRow(pos)
		if err == nil {
			err = adopt(tuple, begin, frozenEnd[pos])
		}
		if err != nil {
			return fail(err)
		}
	}
	for _, c := range b.carry {
		if err := adopt(c.tuple, c.begin, c.end); err != nil {
			return fail(err)
		}
	}

	// Install: one pointer. Views pinned before this line keep the old
	// main.
	t.main = b.next
	t.frozen = nil
	t.frozenRows = 0
	t.merging = false
	t.cMerges.Inc()
	t.cSwaps.Inc()
	t.cMergeRows.Add(int64(b.next.rows))
	t.cStragglers.Add(int64(stragglers))
	t.gFrozenRows.Set(0)
	t.gActiveRows.Set(int64(t.delta.Rows()))
	return nil
}

// Merging reports whether an online merge is between freeze and swap.
func (t *Table) Merging() bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.merging
}
