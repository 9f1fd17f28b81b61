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

// ScanEqual appends to out the positions equal to v. Predicate
// evaluation happens on compressed codes.
func (c *MRC) ScanEqual(v value.Value, out []uint32, skip func(int) bool) ([]uint32, error) {
	return c.ScanEqualIn(v, 0, c.codes.Len(), out, skip)
}

// ScanEqualIn is ScanEqual restricted to rows in [rowLo, rowHi); the
// morsel-driven parallel executor calls it with disjoint row ranges.
func (c *MRC) ScanEqualIn(v value.Value, rowLo, rowHi int, out []uint32, skip func(int) bool) ([]uint32, error) {
	if v.Type() != c.typ {
		return nil, fmt.Errorf("column %q: predicate type %s, want %s", c.name, v.Type(), c.typ)
	}
	code, ok := c.dict.Encode(v)
	if !ok {
		return out, nil // value absent: empty result
	}
	return unmasked(c.codes.ScanEqualIn(code, rowLo, rowHi, out), len(out), skip), nil
}

// ScanRange appends positions with lo <= value <= hi to out.
func (c *MRC) ScanRange(lo, hi value.Value, out []uint32, skip func(int) bool) ([]uint32, error) {
	return c.ScanRangeIn(lo, hi, 0, c.codes.Len(), out, skip)
}

// ScanRangeIn is ScanRange restricted to rows in [rowLo, rowHi).
func (c *MRC) ScanRangeIn(lo, hi value.Value, rowLo, rowHi int, out []uint32, skip func(int) bool) ([]uint32, error) {
	if lo.Type() != c.typ || hi.Type() != c.typ {
		return nil, fmt.Errorf("column %q: range predicate types %s/%s, want %s", c.name, lo.Type(), hi.Type(), c.typ)
	}
	loCode, hiCode := c.dict.LowerBound(lo), c.dict.UpperBound(hi)
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

// ProbeEqual reports for each position in candidates whether the value
// at the position equals v, appending matches to out (the scan→probe
// switch of the paper's executor uses this on DRAM-resident columns).
func (c *MRC) ProbeEqual(v value.Value, candidates []uint32, out []uint32) ([]uint32, error) {
	if v.Type() != c.typ {
		return nil, fmt.Errorf("column %q: predicate type %s, want %s", c.name, v.Type(), c.typ)
	}
	code, ok := c.dict.Encode(v)
	if !ok {
		return out, nil
	}
	for _, pos := range candidates {
		if c.codes.Get(int(pos)) == code {
			out = append(out, pos)
		}
	}
	return out, nil
}

// ProbeRange appends candidate positions whose value lies in [lo, hi].
func (c *MRC) ProbeRange(lo, hi value.Value, candidates []uint32, out []uint32) ([]uint32, error) {
	if lo.Type() != c.typ || hi.Type() != c.typ {
		return nil, fmt.Errorf("column %q: range predicate types %s/%s, want %s", c.name, lo.Type(), hi.Type(), c.typ)
	}
	loCode := c.dict.LowerBound(lo)
	hiCode := c.dict.UpperBound(hi)
	for _, pos := range candidates {
		if code := c.codes.Get(int(pos)); code >= loCode && code < hiCode {
			out = append(out, pos)
		}
	}
	return out, nil
}

// Dictionary exposes the underlying dictionary (read-only use).
func (c *MRC) Dictionary() *dict.Dictionary { return c.dict }

// Codes exposes the packed codes (read-only use).
func (c *MRC) Codes() *dict.BitPacked { return c.codes }
