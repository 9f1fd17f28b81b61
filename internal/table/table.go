// Package table composes the storage substrates into the paper's tiered
// table architecture (Section II): a read-optimized main partition whose
// attributes are either Memory-Resident Columns (MRCs) or grouped into a
// row-oriented Secondary-Storage Column Group (SSCG), plus a
// DRAM-resident write-optimized delta partition. Data modifications are
// insert-only into the delta; the delta is periodically merged into the
// main partition. The column layout — which attributes are MRCs — is
// decided by the column selection model and applied during merge.
package table

import (
	"fmt"
	"maps"
	"sync"

	"tierdb/internal/amm"
	"tierdb/internal/delta"
	"tierdb/internal/dict"
	"tierdb/internal/metrics"
	"tierdb/internal/mvcc"
	"tierdb/internal/schema"
	"tierdb/internal/storage"
	"tierdb/internal/value"
)

// RowID addresses a visible row: main-partition rows occupy
// [0, mainRows), delta rows follow at mainRows+localPos. RowIDs are
// stable between merges only.
type RowID = uint64

// Options configures a table's storage environment.
type Options struct {
	// Store is the secondary storage device backing SSCGs (typically a
	// storage.TimedStore in simulations). Defaults to an in-memory
	// store.
	Store storage.Store
	// Cache is an optional AMM page cache in front of Store.
	Cache *amm.Cache
	// Manager supplies transactions; defaults to a fresh manager.
	Manager *mvcc.Manager
	// Registry receives the table's instruments (delta counters,
	// table.merges); nil disables them. The table keeps the registry so
	// it can re-observe the fresh delta partition created by each merge.
	Registry *metrics.Registry
}

// Table is a tiered HTAP table: a pointer to the current main partition
// plus the delta partitions in front of it.
//
// What is immutable: everything behind t.main (see main). A merge, a
// layout change and CreateIndex each build the next main off to the side
// and install it by assigning the pointer; nothing is edited in place.
//
// What t.mu guards: the pointers themselves — main, delta, frozen,
// frozenRows, merging. Freeze, swap and index creation assign them
// under the write lock. Inserts and delete intents run under the read
// lock, which is what lets the swap treat "no provisional state on the
// retiring partitions" as stable once it holds the write lock, and what
// lets Delete hand back exactly the row it marked.
//
// How to read: an accessor that touches only DRAM state (row counts,
// layout, statistics, index handles, footprints) peeks — it copies the
// pointers under the read lock and reads them after dropping it, which
// is safe because the structures are immutable and garbage-collected.
// Anything that reads SSCG pages must Pin a View instead: the pages of
// a retired main go back to the store's freelist once the last pinned
// View drains, and only a pin holds them. Anything that combines the
// partitions into one answer (a count, a scan, a lookup) goes through a
// View as well, because only a View carries the pin-time bound on the
// active delta.
//
// RowIDs are positional — main rows, then frozen, then active delta —
// and every swap renumbers them: an id is meaningful against one View,
// or between two calls only if no merge ran in between.
type Table struct {
	mu       sync.RWMutex
	name     string
	schema   *schema.Schema
	mgr      *mvcc.Manager
	store    storage.Store
	cache    *amm.Cache
	registry *metrics.Registry

	// Merge instruments (no-ops when the registry is nil).
	cMerges     *metrics.Counter
	cSwaps      *metrics.Counter
	cMergeRows  *metrics.Counter
	cMergeFails *metrics.Counter
	cStragglers *metrics.Counter
	hMergeNs    *metrics.Histogram
	gActiveRows *metrics.Gauge
	gFrozenRows *metrics.Gauge

	main       *main            // current main partition
	delta      *delta.Partition // active delta: all new writes land here
	frozen     *delta.Partition // merge input while a merge is in flight (nil otherwise)
	frozenRows int              // physical frozen rows, fixed at freeze
	merging    bool             // an online merge is between freeze and swap
	observed   []selEstimator   // per-column observed-selectivity EWMAs (lock-free)

	// Test-only synchronization points of the online merge; set before
	// any merge starts, never under load.
	hookAfterFreeze func()
	hookBeforeSwap  func()
}

// New creates an empty table whose columns all start as MRCs.
func New(name string, s *schema.Schema, opts Options) (*Table, error) {
	if name == "" {
		return nil, fmt.Errorf("table: empty name")
	}
	if s == nil {
		return nil, fmt.Errorf("table: nil schema")
	}
	if opts.Store == nil {
		opts.Store = storage.NewMemStore()
	}
	if opts.Manager == nil {
		opts.Manager = mvcc.NewManager()
	}
	t := &Table{
		name:        name,
		schema:      s,
		mgr:         opts.Manager,
		store:       opts.Store,
		cache:       opts.Cache,
		registry:    opts.Registry,
		cMerges:     opts.Registry.Counter("table.merges"),
		cSwaps:      opts.Registry.Counter("merge.swaps"),
		cMergeRows:  opts.Registry.Counter("merge.rows"),
		cMergeFails: opts.Registry.Counter("merge.failures"),
		cStragglers: opts.Registry.Counter("merge.stragglers"),
		hMergeNs:    opts.Registry.Histogram("merge.ns", metrics.IOLatencyBuckets()),
		gActiveRows: opts.Registry.Gauge("delta.active_rows"),
		gFrozenRows: opts.Registry.Gauge("delta.frozen_rows"),
		delta:       delta.New(s),
		observed:    make([]selEstimator, s.Len()),
	}
	t.delta.Observe(t.registry)
	layout := make([]bool, s.Len())
	for i := range layout {
		layout[i] = true
	}
	var err error
	if t.main, err = t.buildMain(layout, source{versions: mvcc.NewVersions()}); err != nil {
		return nil, err
	}
	return t, nil
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() *schema.Schema { return t.schema }

// Manager returns the table's transaction manager.
func (t *Table) Manager() *mvcc.Manager { return t.mgr }

// Store returns the secondary storage device backing the table's SSCGs
// (immutable after New). The executor's workers read a timed store's
// untimed side and charge their page reads to it once per query.
func (t *Table) Store() storage.Store { return t.store }

// Layout returns a copy of the current column layout (true = MRC).
func (t *Table) Layout() []bool {
	return append([]bool(nil), t.peek().main.layout...)
}

// MainRows returns the number of main-partition rows (including
// deleted-but-not-merged ones).
func (t *Table) MainRows() int { return t.peek().main.rows }

// ActiveDeltaRows returns the physical row count of the active delta
// only — the growth since the last freeze, which is what merge
// scheduling thresholds watch.
func (t *Table) ActiveDeltaRows() int { return t.peek().active.Rows() }

// DeltaBytes returns the DRAM footprint of the unmerged deltas.
func (t *Table) DeltaBytes() int64 {
	v := t.peek()
	b := v.active.Bytes()
	if v.frozen != nil {
		b += v.frozen.Bytes()
	}
	return b
}

// Insert appends a row through tx (insert-only, into the active
// delta). The read lock spans the provisional append, so a merge
// freeze can never split the row from its version entry.
func (t *Table) Insert(tx *mvcc.Tx, row []value.Value) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	_, err := t.delta.Insert(tx, row)
	return err
}

// BulkAppend loads rows outside any transaction; they are immediately
// visible. Rows land in the delta; call Merge to move them into the
// main partition under the current layout.
func (t *Table) BulkAppend(rows [][]value.Value) error {
	return t.BulkAppendAt(rows, t.mgr.LastCommit())
}

// Delete marks the row deleted through tx, routing the id across main,
// frozen and active partitions.
func (t *Table) Delete(tx *mvcc.Tx, id RowID) error {
	_, err := t.markDeleted(tx, id, false)
	return err
}

// DeleteReturning is Delete that also returns the tuple it marked. The
// tuple is read and the intent registered under one hold of the read
// lock, so no merge swap can renumber id in between: the returned
// content is the content of the row that carries the intent, which is
// what a content-addressed redo record must name.
func (t *Table) DeleteReturning(tx *mvcc.Tx, id RowID) ([]value.Value, error) {
	return t.markDeleted(tx, id, true)
}

// markDeleted registers tx's delete intent on row id, reading the tuple
// first when asked to. The read lock keeps the swap out, so the main's
// SSCG pages cannot be retired under the read and no pin is needed. The
// commit callbacks capture the version store resolved here, not the
// table: intents registered against a retiring partition must resolve
// against that partition (the merge swap waits for them before
// reconciling).
func (t *Table) markDeleted(tx *mvcc.Tx, id RowID, read bool) ([]value.Value, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	v := t.viewLocked()
	var tuple []value.Value
	if read {
		var err error
		if tuple, err = v.GetTuple(id); err != nil {
			return nil, err
		}
	}
	part, pos := v.locate(id)
	if part != nil {
		return tuple, part.Delete(tx, pos)
	}
	vers := t.main.versions
	if err := vers.MarkDelete(pos, tx.ID()); err != nil {
		return nil, err
	}
	tx.OnCommit(func(ts mvcc.Timestamp) { vers.CommitDelete(pos, ts) })
	tx.OnAbort(func() { vers.AbortDelete(pos, tx.ID()) })
	return tuple, nil
}

// Update implements the insert-only update: delete the old version and
// insert the new one in the same transaction.
func (t *Table) Update(tx *mvcc.Tx, id RowID, row []value.Value) error {
	if err := t.Delete(tx, id); err != nil {
		return err
	}
	return t.Insert(tx, row)
}

// GetValue materializes one cell of a row (no visibility check).
func (t *Table) GetValue(id RowID, col int) (value.Value, error) {
	v := t.Pin()
	defer v.Release()
	return v.GetValue(id, col)
}

// CreateIndex builds a DRAM-resident group-key index over the main
// partition of the given column: its rows grouped by dictionary code,
// keyed by the column's dictionary — an MRC's own, or one built for an
// SSCG column (indexes are never evicted, paper Section IV). It is
// rebuilt by Merge.
func (t *Table) CreateIndex(col int) error {
	if col < 0 || col >= t.schema.Len() {
		return fmt.Errorf("table %s: index column %d out of range", t.name, col)
	}
	return t.installIndex([]int{col})
}

// installIndex installs a copy of the current main that additionally
// indexes cols. The copy shares every container but the two index maps
// and shares the epoch, so views pinned on either side of the install
// hold the same SSCG pages.
func (t *Table) installIndex(cols []int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	next := *t.main
	next.indexes = maps.Clone(t.main.indexes)
	next.composites = maps.Clone(t.main.composites)
	if err := next.addIndex(cols, t.main.column); err != nil {
		return err
	}
	t.main = &next
	return nil
}

// Index returns the main-partition index for col, or nil.
func (t *Table) Index(col int) *dict.Index { return t.peek().main.indexes[col] }

// VisibleCount returns the number of rows visible at the latest
// snapshot, read with the pin (see PinLatest).
func (t *Table) VisibleCount() int {
	v, snapshot := t.PinLatest()
	defer v.Release()
	return v.VisibleCount(snapshot)
}

// MemoryBytes returns the table's DRAM footprint: MRCs, deltas, MVCC
// vectors (indexes excluded for parity with the paper's budget metric,
// which covers attribute data).
func (t *Table) MemoryBytes() int64 {
	v := t.peek()
	b := v.active.Bytes() + v.main.versions.Bytes()
	if v.frozen != nil {
		b += v.frozen.Bytes()
	}
	for _, mrc := range v.main.mrcs {
		if mrc != nil {
			b += mrc.Bytes()
		}
	}
	return b
}

// SecondaryBytes returns the SSCG footprint on secondary storage.
func (t *Table) SecondaryBytes() int64 {
	if g := t.peek().main.group; g != nil {
		return g.Bytes()
	}
	return 0
}

// Selectivity returns the paper's selectivity estimate 1/n for the
// column (Section II-B).
func (t *Table) Selectivity(col int) float64 {
	v := t.peek()
	return v.Selectivity(col)
}

// ColumnBytes estimates the DRAM footprint column col would occupy as
// an MRC: exact for resident columns, estimated from row count and slot
// width for SSCG-placed ones. This is the size a_i the column selection
// model budgets with.
func (t *Table) ColumnBytes(col int) int64 {
	if col < 0 || col >= t.schema.Len() {
		return 0
	}
	m := t.peek().main
	if mrc := m.mrcs[col]; mrc != nil {
		return mrc.Bytes()
	}
	return int64(m.rows) * int64(t.schema.Field(col).SlotWidth())
}
