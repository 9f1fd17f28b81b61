// Package delta implements the write-optimized, DRAM-resident delta
// partition (paper Section II, cf. C-Store's writable store): data
// modifications append here using an insert-only approach, each column
// keeps an unsorted dictionary with an additional B+-tree for fast value
// retrievals, and the partition is periodically merged into the
// read-optimized main partition. The delta stays fully DRAM-resident,
// which is why tiering does not affect modification throughput.
package delta

import (
	"errors"
	"fmt"
	"sync"

	"tierdb/internal/bptree"
	"tierdb/internal/metrics"
	"tierdb/internal/mvcc"
	"tierdb/internal/schema"
	"tierdb/internal/value"
)

// ErrFrozen is returned when inserting into a frozen partition. The
// online merge freezes the delta it is about to fold into the main
// partition; new writes belong in the fresh active delta the table
// opened in the same critical section.
var ErrFrozen = errors.New("delta: partition is frozen")

// deltaColumn is one attribute of the delta: an unsorted dictionary
// (insertion order) plus the per-row code vector and a B+-tree value
// index.
type deltaColumn struct {
	codeOf map[value.Value]uint32
	values []value.Value
	codes  []uint32
	tree   *bptree.Tree
}

// Partition is a write-optimized delta partition. All methods are safe
// for concurrent use.
type Partition struct {
	mu       sync.RWMutex
	schema   *schema.Schema
	cols     []deltaColumn
	versions *mvcc.Versions
	frozen   bool

	// Observability handles (nil → no-op). Visibility checks are counted
	// batched per scan call, never per row, to keep the hot path cheap.
	cInserts   *metrics.Counter
	cVisChecks *metrics.Counter
}

// New returns an empty delta partition for the given schema.
func New(s *schema.Schema) *Partition {
	p := &Partition{
		schema:   s,
		cols:     make([]deltaColumn, s.Len()),
		versions: mvcc.NewVersions(),
	}
	for i := range p.cols {
		p.cols[i].codeOf = make(map[value.Value]uint32)
		p.cols[i].tree = bptree.New(s.Field(i).Type)
	}
	return p
}

// Schema returns the partition's schema.
func (p *Partition) Schema() *schema.Schema { return p.schema }

// Observe registers the partition's instruments (delta.inserts,
// delta.visibility_checks) with a metrics registry. A merged-away delta
// is replaced by a fresh Partition, so the owner must call Observe
// again after every merge.
func (p *Partition) Observe(r *metrics.Registry) {
	p.cInserts = r.Counter("delta.inserts")
	p.cVisChecks = r.Counter("delta.visibility_checks")
}

// Versions exposes the MVCC version store for the delta's rows.
func (p *Partition) Versions() *mvcc.Versions { return p.versions }

// Freeze marks the partition immutable for inserts: Insert, Append and
// AdoptRow fail with ErrFrozen from now on. Deletes (pure version-store
// updates) and in-flight commit callbacks still resolve, so readers and
// writers that raced the freeze finish normally; the physical row set is
// fixed, which is what lets the merge rebuild off the partition without
// holding any table lock.
func (p *Partition) Freeze() {
	p.mu.Lock()
	p.frozen = true
	p.mu.Unlock()
}

// Frozen reports whether the partition has been frozen.
func (p *Partition) Frozen() bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.frozen
}

// AdoptRow appends a row carrying explicit begin/end version timestamps
// (end == mvcc.Infinity for a live row). The merge swap uses it to
// re-base frozen-delta rows that committed after the rebuild snapshot
// into the new active delta, preserving their commit history so every
// open snapshot keeps its exact visibility.
func (p *Partition) AdoptRow(row []value.Value, begin, end mvcc.Timestamp) (int, error) {
	if err := p.schema.CheckRow(row); err != nil {
		return 0, fmt.Errorf("delta: %w", err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.frozen {
		return 0, ErrFrozen
	}
	pos := p.appendRow(row)
	if local := p.versions.AppendAt(begin, end); local != pos {
		return 0, fmt.Errorf("delta: version store out of sync: row %d vs %d", local, pos)
	}
	return pos, nil
}

// Rows returns the number of physically stored rows (including
// uncommitted and deleted ones).
func (p *Partition) Rows() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if len(p.cols) == 0 {
		return 0
	}
	return len(p.cols[0].codes)
}

// appendRow stores the row values and returns the new local position.
// Caller holds p.mu.
func (p *Partition) appendRow(row []value.Value) int {
	pos := len(p.cols[0].codes)
	for i, v := range row {
		c := &p.cols[i]
		code, ok := c.codeOf[v]
		if !ok {
			code = uint32(len(c.values))
			c.codeOf[v] = code
			c.values = append(c.values, v)
		}
		c.codes = append(c.codes, code)
		c.tree.Insert(v, uint32(pos))
	}
	return pos
}

// Insert appends a provisional row owned by tx; the row becomes visible
// to other transactions when tx commits. The returned position is local
// to the delta.
func (p *Partition) Insert(tx *mvcc.Tx, row []value.Value) (int, error) {
	if err := p.schema.CheckRow(row); err != nil {
		return 0, fmt.Errorf("delta: %w", err)
	}
	p.mu.Lock()
	if p.frozen {
		p.mu.Unlock()
		return 0, ErrFrozen
	}
	p.cInserts.Inc()
	pos := p.appendRow(row)
	local := p.versions.AppendPending(tx.ID())
	if local != pos {
		p.mu.Unlock()
		return 0, fmt.Errorf("delta: version store out of sync: row %d vs %d", local, pos)
	}
	p.mu.Unlock()
	tx.OnCommit(func(ts mvcc.Timestamp) { p.versions.CommitInsert(pos, ts) })
	tx.OnAbort(func() { p.versions.AbortInsert(pos) })
	return pos, nil
}

// Append adds a row that is immediately visible from ts on (bulk load
// path, no transaction).
func (p *Partition) Append(row []value.Value, ts mvcc.Timestamp) (int, error) {
	if err := p.schema.CheckRow(row); err != nil {
		return 0, fmt.Errorf("delta: %w", err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.frozen {
		return 0, ErrFrozen
	}
	p.cInserts.Inc()
	pos := p.appendRow(row)
	p.versions.AppendCommitted(ts)
	return pos, nil
}

// Delete acquires a delete intent on a delta row for tx.
func (p *Partition) Delete(tx *mvcc.Tx, pos int) error {
	if err := p.versions.MarkDelete(pos, tx.ID()); err != nil {
		return err
	}
	tx.OnCommit(func(ts mvcc.Timestamp) { p.versions.CommitDelete(pos, ts) })
	tx.OnAbort(func() { p.versions.AbortDelete(pos, tx.ID()) })
	return nil
}

// Get returns the value at (pos, col) regardless of visibility; callers
// filter with Versions().Visible.
func (p *Partition) Get(pos, col int) (value.Value, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if col < 0 || col >= len(p.cols) {
		return value.Value{}, fmt.Errorf("delta: column %d out of range (%d)", col, len(p.cols))
	}
	c := &p.cols[col]
	if pos < 0 || pos >= len(c.codes) {
		return value.Value{}, fmt.Errorf("delta: row %d out of range (%d)", pos, len(c.codes))
	}
	return c.values[c.codes[pos]], nil
}

// GetRow materializes a full delta row.
func (p *Partition) GetRow(pos int) ([]value.Value, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if len(p.cols) == 0 || pos < 0 || pos >= len(p.cols[0].codes) {
		return nil, fmt.Errorf("delta: row %d out of range", pos)
	}
	out := make([]value.Value, len(p.cols))
	for i := range p.cols {
		c := &p.cols[i]
		out[i] = c.values[c.codes[pos]]
	}
	return out, nil
}

// ScanEqual appends positions (local to the delta) whose column equals v
// and which are visible at (snapshot, self). It uses the B+-tree index,
// the delta's fast value-retrieval path, and checks the hits' visibility
// under one hold of the version store's lock.
func (p *Partition) ScanEqual(col int, v value.Value, snapshot mvcc.Timestamp, self mvcc.TxID, out []uint32) ([]uint32, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if col < 0 || col >= len(p.cols) {
		return nil, fmt.Errorf("delta: column %d out of range (%d)", col, len(p.cols))
	}
	from := len(out)
	out = append(out, p.cols[col].tree.Lookup(v)...)
	return p.visible(out, from, snapshot, self), nil
}

// ScanRange appends visible positions with lo <= value <= hi.
func (p *Partition) ScanRange(col int, lo, hi value.Value, snapshot mvcc.Timestamp, self mvcc.TxID, out []uint32) ([]uint32, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if col < 0 || col >= len(p.cols) {
		return nil, fmt.Errorf("delta: column %d out of range (%d)", col, len(p.cols))
	}
	from := len(out)
	p.cols[col].tree.Range(lo, hi, func(_ value.Value, positions []uint32) bool {
		out = append(out, positions...)
		return true
	})
	return p.visible(out, from, snapshot, self), nil
}

// visible counts the index hits out[from:] as visibility checks and
// drops the invisible ones in place.
func (p *Partition) visible(out []uint32, from int, snapshot mvcc.Timestamp, self mvcc.TxID) []uint32 {
	p.cVisChecks.Add(int64(len(out) - from))
	return out[:from+len(p.versions.FilterVisible(out[from:], snapshot, self))]
}

// VisibleRows returns the positions of all rows visible at (snapshot,
// self), in insertion order. Used by the merge process and full scans.
func (p *Partition) VisibleRows(snapshot mvcc.Timestamp, self mvcc.TxID) []uint32 {
	n := p.Rows()
	p.cVisChecks.Add(int64(n))
	return p.versions.VisibleIn(0, n, snapshot, self, make([]uint32, 0, n))
}

// Column returns column col's dictionary — its distinct values in
// insertion order — and the code of each physical row. The slices are
// the partition's own and must not be modified; the merge reads them
// without copying, which is safe only once the partition is frozen and
// its rows are fixed.
func (p *Partition) Column(col int) (values []value.Value, codes []uint32) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	c := &p.cols[col]
	return c.values[:len(c.values):len(c.values)], c.codes[:len(c.codes):len(c.codes)]
}

// Bytes estimates the DRAM footprint of the delta (dictionaries, code
// vectors, trees are ignored, MVCC vectors included).
func (p *Partition) Bytes() int64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	var b int64
	for i := range p.cols {
		c := &p.cols[i]
		b += int64(len(c.codes)) * 4
		for _, v := range c.values {
			if v.Type() == value.String {
				b += int64(len(v.Str())) + 16
			} else {
				b += 8
			}
		}
	}
	return b + p.versions.Bytes()
}

// DistinctCount returns the number of distinct values inserted into the
// column so far (selectivity estimation for delta-resident data).
func (p *Partition) DistinctCount(col int) int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if col < 0 || col >= len(p.cols) {
		return 0
	}
	return len(p.cols[col].values)
}
