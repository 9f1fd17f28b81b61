// Package delta implements the write-optimized, DRAM-resident delta
// partition (paper Section II, cf. C-Store's writable store): data
// modifications append here using an insert-only approach, each column
// keeps an unsorted dictionary with one posting list per code for fast
// value retrievals, and the partition is periodically merged into the
// read-optimized main partition. The paper pairs the unsorted dictionary
// with a B+-tree; posting lists need no descent per insert, since a new
// row's position is the largest yet and so simply goes last in its
// code's list. The delta stays fully DRAM-resident, which is why tiering
// does not affect modification throughput.
package delta

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"

	"tierdb/internal/dict"
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

// deltaColumn is one attribute of the delta: an unsorted dictionary —
// the distinct values in insertion order, in one slice of their payload
// type, and a map from each value to its code — plus the per-row code
// vector and each code's posting list. Of the three maps only the one of
// vals.Type is used, made by the column's first row.
type deltaColumn struct {
	vals     dict.Values
	ints     map[int64]uint32
	floats   map[float64]uint32
	strs     map[string]uint32
	codes    []uint32
	postings [][]uint32 // postings[code]: the rows filed under code, ascending
	nan      uint32     // the code every NaN row is filed under, noNaN before the first
}

// noNaN is a column's nan before its first NaN row.
const noNaN = ^uint32(0)

// Partition is a write-optimized delta partition. All methods are safe
// for concurrent use.
type Partition struct {
	mu       sync.RWMutex
	schema   *schema.Schema
	cols     []deltaColumn
	versions *mvcc.Versions
	frozen   bool
	bytes    int64 // code vectors and dictionary payloads, summed as rows arrive

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
		p.cols[i] = deltaColumn{vals: dict.Values{Type: s.Field(i).Type}, nan: noNaN}
	}
	return p
}

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

// Freeze marks the partition immutable for inserts: Insert, Append,
// AppendRows and AdoptRow fail with ErrFrozen from now on. Deletes (pure
// version-store updates) and in-flight commit callbacks still resolve,
// so readers and writers that raced the freeze finish normally; the
// physical row set is fixed, which is what lets the merge rebuild off
// the partition without holding any table lock.
func (p *Partition) Freeze() {
	p.mu.Lock()
	p.frozen = true
	p.mu.Unlock()
}

// AdoptRow appends a row carrying explicit begin/end version timestamps
// (end == mvcc.Infinity for a live row). The merge swap uses it to
// re-base frozen-delta rows that committed after the rebuild snapshot
// into the new active delta, preserving their commit history so every
// open snapshot keeps its exact visibility.
func (p *Partition) AdoptRow(row []value.Value, begin, end mvcc.Timestamp) (int, error) {
	return p.appendRows([][]value.Value{row}, func() int { return p.versions.AppendAt(begin, end) })
}

// Rows returns the number of physically stored rows (including
// uncommitted and deleted ones).
func (p *Partition) Rows() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.cols[0].codes)
}

// appendRows is the one path by which rows enter the partition, one row
// or a batch alike: under one hold of the lock it stores rows, column by
// column, and their versions with version, which returns the first
// one's position. It checks every row against the schema before it
// stores any, so an error leaves the partition as it was.
func (p *Partition) appendRows(rows [][]value.Value, version func() int) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.frozen {
		return 0, ErrFrozen
	}
	for i, row := range rows {
		if err := p.schema.CheckRow(row); err != nil {
			return 0, fmt.Errorf("delta: row %d: %w", i, err)
		}
	}
	from := len(p.cols[0].codes)
	for col := range p.cols {
		c := &p.cols[col]
		distinct := c.vals.Len()
		c.codes = slices.Grow(c.codes, len(rows))
		switch c.vals.Type {
		case value.Int64:
			c.codes = probe(&c.ints, &c.vals.Ints, rows, col, value.Value.Int, c.codes)
		case value.Float64:
			c.codes = probe(&c.floats, &c.vals.Floats, rows, col, value.Value.Float, c.codes)
		default:
			c.codes = probe(&c.strs, &c.vals.Strs, rows, col, value.Value.Str, c.codes)
		}
		p.bytes += 4*int64(len(rows)) + c.vals.Bytes(distinct)
		for len(c.postings) < c.vals.Len() {
			c.postings = append(c.postings, nil)
		}
		for i, code := range c.codes[from:] {
			code = c.key(code)
			c.postings[code] = append(c.postings[code], uint32(from+i))
		}
	}
	if local := version(); local != from {
		return 0, fmt.Errorf("delta: version store out of sync: row %d vs %d", local, from)
	}
	return from, nil
}

// probe appends to codes the code of each row's value in column col,
// giving a value codeOf lacks the next code and appending it to vals.
// Keys are equal as Go's == says, as they were when the map was keyed by
// value.Value: -0 and +0 share a code, and every NaN gets its own.
func probe[T comparable](codeOf *map[T]uint32, vals *[]T, rows [][]value.Value, col int, payload func(value.Value) T, codes []uint32) []uint32 {
	if *codeOf == nil {
		*codeOf = map[T]uint32{}
	}
	for _, row := range rows {
		v := payload(row[col])
		code, ok := (*codeOf)[v]
		if !ok {
			code = uint32(len(*vals))
			(*codeOf)[v] = code
			*vals = append(*vals, v)
		}
		codes = append(codes, code)
	}
	return codes
}

// key returns the code a row of code code is filed under: code itself,
// except that every NaN goes under the column's first NaN code, since
// value.Compare calls NaNs equal while the map gives each its own code
// (-0 and +0 share a code already).
func (c *deltaColumn) key(code uint32) uint32 {
	if c.vals.Floats != nil && c.vals.Floats[code] != c.vals.Floats[code] {
		c.nan = min(c.nan, code)
		return c.nan
	}
	return code
}

// Insert appends a provisional row owned by tx; the row becomes visible
// to other transactions when tx commits. The returned position is local
// to the delta.
func (p *Partition) Insert(tx *mvcc.Tx, row []value.Value) (int, error) {
	pos, err := p.appendRows([][]value.Value{row}, func() int { return p.versions.AppendPending(tx.ID()) })
	if err != nil {
		return 0, err
	}
	p.cInserts.Inc()
	tx.OnCommit(func(ts mvcc.Timestamp) { p.versions.CommitInsert(pos, ts) })
	tx.OnAbort(func() { p.versions.AbortInsert(pos) })
	return pos, nil
}

// Append adds a row that is immediately visible from ts on (no
// transaction); it is AppendRows of one row.
func (p *Partition) Append(row []value.Value, ts mvcc.Timestamp) (int, error) {
	return p.AppendRows([][]value.Value{row}, ts)
}

// AppendRows adds a batch of rows that are immediately visible from ts
// on — a bulk load, or the inserts of one replayed commit — and returns
// the first one's position. A row that does not fit the schema fails the
// whole batch, which then leaves no trace.
func (p *Partition) AppendRows(rows [][]value.Value, ts mvcc.Timestamp) (int, error) {
	pos, err := p.appendRows(rows, func() int { return p.versions.AppendCommittedN(len(rows), ts) })
	if err != nil {
		return 0, err
	}
	p.cInserts.Add(int64(len(rows)))
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
	return c.vals.At(int(c.codes[pos])), nil
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
		out[i] = c.vals.At(int(c.codes[pos]))
	}
	return out, nil
}

// ScanEqual appends positions (local to the delta) whose column equals v
// and which are visible at (snapshot, self). One map probe finds v's
// code, whose posting list holds the hits, ascending; their visibility
// is checked under one hold of the version store's lock.
func (p *Partition) ScanEqual(col int, v value.Value, snapshot mvcc.Timestamp, self mvcc.TxID, out []uint32) ([]uint32, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	c, err := p.checkedColumn(col, v)
	if err != nil {
		return nil, err
	}
	code, ok := noNaN, false
	switch c.vals.Type {
	case value.Int64:
		code, ok = c.ints[v.Int()]
	case value.Float64:
		if f := v.Float(); f != f {
			code, ok = c.nan, c.nan != noNaN
		} else {
			code, ok = c.floats[f]
		}
	default:
		code, ok = c.strs[v.Str()]
	}
	from := len(out)
	if ok {
		out = append(out, c.postings[code]...)
	}
	return p.visible(out, from, snapshot, self), nil
}

// ScanRange appends visible positions with lo <= value <= hi: one pass
// over the column's distinct values gathers the posting list of each one
// in range, so the positions come grouped by code, not ascending.
func (p *Partition) ScanRange(col int, lo, hi value.Value, snapshot mvcc.Timestamp, self mvcc.TxID, out []uint32) ([]uint32, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	c, err := p.checkedColumn(col, lo, hi)
	if err != nil {
		return nil, err
	}
	from := len(out)
	switch c.vals.Type {
	case value.Int64:
		out = gather(c.vals.Ints, lo.Int(), hi.Int(), c.postings, out)
	case value.Float64:
		out = gather(c.vals.Floats, lo.Float(), hi.Float(), c.postings, out)
	default:
		out = gather(c.vals.Strs, lo.Str(), hi.Str(), c.postings, out)
	}
	return p.visible(out, from, snapshot, self), nil
}

// checkedColumn returns column col, checking that it exists and that
// every operand has its type.
func (p *Partition) checkedColumn(col int, operands ...value.Value) (*deltaColumn, error) {
	if col < 0 || col >= len(p.cols) {
		return nil, fmt.Errorf("delta: column %d out of range (%d)", col, len(p.cols))
	}
	c := &p.cols[col]
	for _, v := range operands {
		if v.Type() != c.vals.Type {
			return nil, fmt.Errorf("delta: column %d holds %s, not %s", col, c.vals.Type, v.Type())
		}
	}
	return c, nil
}

// gather appends the posting list of every code whose value lies in
// [lo, hi] in cmp.Compare's order, code by code.
func gather[T cmp.Ordered](vals []T, lo, hi T, postings [][]uint32, out []uint32) []uint32 {
	for code, v := range vals {
		if cmp.Compare(v, lo) >= 0 && cmp.Compare(v, hi) <= 0 {
			out = append(out, postings[code]...)
		}
	}
	return out
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
func (p *Partition) Column(col int) (dict.Values, []uint32) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	c := &p.cols[col]
	return c.vals, c.codes[:len(c.codes):len(c.codes)]
}

// Bytes estimates the DRAM footprint of the delta: code vectors, 8 bytes
// a distinct number and a distinct string's bytes plus a 16-byte header,
// and the MVCC vectors; maps and posting lists are ignored.
func (p *Partition) Bytes() int64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.bytes + p.versions.Bytes()
}

// DistinctCount returns the number of distinct values inserted into the
// column so far (selectivity estimation for delta-resident data).
func (p *Partition) DistinctCount(col int) int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if col < 0 || col >= len(p.cols) {
		return 0
	}
	return p.cols[col].vals.Len()
}
