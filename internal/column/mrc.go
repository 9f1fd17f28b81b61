// Package column implements Memory-Resident Columns (MRCs): singular,
// fully DRAM-resident columns with order-preserving dictionary encoding
// and bit-packed value vectors (paper Section II-A). All sequential
// operations — filtering, joining, aggregating — run on MRCs; range
// predicates translate to code ranges thanks to order preservation.
package column

import (
	"fmt"
	"slices"

	"tierdb/internal/dict"
	"tierdb/internal/value"
)

// MRC is an immutable memory-resident column of a main partition.
type MRC struct {
	name  string
	typ   value.Type
	dict  *dict.Dictionary
	codes *dict.BitPacked
}

// Build constructs an MRC from the column's values.
func Build(name string, typ value.Type, values []value.Value) (*MRC, error) {
	d, codes, err := dict.Build(typ, values)
	if err != nil {
		return nil, fmt.Errorf("column %q: %w", name, err)
	}
	return New(name, d, d.Pack(codes)), nil
}

// New assembles an MRC from its dictionary and its packed codes — how a
// merge builds the column it has already encoded (dict.Merge), and how
// recovery adopts the column a checkpoint stored.
func New(name string, d *dict.Dictionary, codes *dict.BitPacked) *MRC {
	return &MRC{name: name, typ: d.Type(), dict: d, codes: codes}
}

// Name returns the column name.
func (c *MRC) Name() string { return c.name }

// Type returns the value type.
func (c *MRC) Type() value.Type { return c.typ }

// Len returns the number of rows.
func (c *MRC) Len() int { return c.codes.Len() }

// DistinctCount returns the dictionary size.
func (c *MRC) DistinctCount() int { return c.dict.Size() }

// Selectivity returns the paper's attribute selectivity estimate 1/n
// for n distinct values (Section II-B).
func (c *MRC) Selectivity() float64 {
	if c.dict.Size() == 0 {
		return 1
	}
	return 1 / float64(c.dict.Size())
}

// Bytes returns the DRAM footprint: bit-packed vector plus dictionary.
func (c *MRC) Bytes() int64 { return c.codes.Bytes() + c.dict.Bytes() }

// Get materializes the value at row i (two dependent accesses: value
// vector, then dictionary — the paper's "two L3 cache misses").
func (c *MRC) Get(i int) (value.Value, error) {
	if i < 0 || i >= c.codes.Len() {
		return value.Value{}, fmt.Errorf("column %q: row %d out of range (%d rows)", c.name, i, c.codes.Len())
	}
	return c.dict.Decode(c.codes.Get(i))
}

// Code returns the dictionary code at row i without decoding (late
// materialization).
func (c *MRC) Code(i int) uint32 { return c.codes.Get(i) }

// CodeRange returns the code range [lo, hi) of the values in [vlo, vhi]
// — the one code of v for [v, v] when v is in the dictionary — and an
// empty range, lo == hi, when no value lies between them. Order
// preservation makes every predicate of the column such a range.
func (c *MRC) CodeRange(vlo, vhi value.Value) (lo, hi uint32) {
	lo = c.dict.LowerBound(vlo)
	return lo, max(lo, c.dict.UpperBound(vhi))
}

// codeRange is CodeRange for operands the caller has not type-checked.
func (c *MRC) codeRange(vlo, vhi value.Value) (lo, hi uint32, err error) {
	if vlo.Type() != c.typ || vhi.Type() != c.typ {
		return 0, 0, fmt.Errorf("column %q: predicate types %s/%s, want %s", c.name, vlo.Type(), vhi.Type(), c.typ)
	}
	lo, hi = c.CodeRange(vlo, vhi)
	return lo, hi, nil
}

// ScanEqualIn appends to out the positions in [rowLo, rowHi) whose value
// equals v. Predicate evaluation happens on compressed codes.
func (c *MRC) ScanEqualIn(v value.Value, rowLo, rowHi int, out []uint32, skip func(int) bool) ([]uint32, error) {
	return c.ScanRangeIn(v, v, rowLo, rowHi, out, skip)
}

// ScanRangeIn appends to out the positions in [rowLo, rowHi) whose value
// lies in [lo, hi].
func (c *MRC) ScanRangeIn(lo, hi value.Value, rowLo, rowHi int, out []uint32, skip func(int) bool) ([]uint32, error) {
	loCode, hiCode, err := c.codeRange(lo, hi)
	if err != nil {
		return nil, err
	}
	return unmasked(c.codes.ScanRangeIn(loCode, hiCode, rowLo, rowHi, out), len(out), skip), nil
}

// unmasked drops from out[from:], the matches one scan appended, the
// rows skip masks. The executor passes nil and filters the matches of a
// morsel by MVCC visibility itself, under one lock hold; a non-nil skip
// is applied here, after the kernel, so there is one kernel.
func unmasked(out []uint32, from int, skip func(int) bool) []uint32 {
	if skip == nil {
		return out
	}
	return out[:from+len(slices.DeleteFunc(out[from:], func(pos uint32) bool { return skip(int(pos)) }))]
}

// ProbeRange appends candidate positions whose value lies in [lo, hi].
// The executor probes a DRAM-resident column the same way, through the
// packed codes and the code range its plan bound.
func (c *MRC) ProbeRange(lo, hi value.Value, candidates []uint32, out []uint32) ([]uint32, error) {
	loCode, hiCode, err := c.codeRange(lo, hi)
	if err != nil {
		return nil, err
	}
	return c.codes.Probe(loCode, hiCode, candidates, out), nil
}

// Dictionary exposes the underlying dictionary (read-only use).
func (c *MRC) Dictionary() *dict.Dictionary { return c.dict }

// Codes exposes the packed codes (read-only use).
func (c *MRC) Codes() *dict.BitPacked { return c.codes }
