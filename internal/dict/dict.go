// Package dict implements order-preserving dictionary encoding with
// bit-packed code vectors — the storage format of Memory-Resident
// Columns (MRCs) and the de-facto standard for main partitions of HTAP
// databases (paper Section II-A; SAP HANA, HyPer). The dictionary is a
// sorted array of distinct values; codes are positions in that array, so
// code order equals value order and range predicates translate to code
// ranges. Codes are packed with the minimal number of bits.
package dict

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"tierdb/internal/value"
)

// Dictionary is an immutable, order-preserving mapping between values of
// one column and dense integer codes.
type Dictionary struct {
	typ    value.Type
	values []value.Value // sorted ascending, distinct
}

// Build constructs a dictionary over vals and returns it together with
// the code of each input value. All values must share one type.
func Build(typ value.Type, vals []value.Value) (*Dictionary, []uint32, error) {
	for i, v := range vals {
		if v.Type() != typ {
			return nil, nil, fmt.Errorf("dict: value %d has type %s, want %s", i, v.Type(), typ)
		}
	}
	distinct := make([]value.Value, len(vals))
	copy(distinct, vals)
	sort.Slice(distinct, func(a, b int) bool { return distinct[a].Compare(distinct[b]) < 0 })
	// Deduplicate in place.
	out := distinct[:0]
	for i, v := range distinct {
		if i == 0 || !v.Equal(out[len(out)-1]) {
			out = append(out, v)
		}
	}
	// A right-sized copy: out shares the rows-long sort buffer, which the
	// dictionary would otherwise keep alive for the column's lifetime.
	d := &Dictionary{typ: typ, values: slices.Clone(out)}
	codes := make([]uint32, len(vals))
	for i, v := range vals {
		c, ok := d.Encode(v)
		if !ok {
			return nil, nil, fmt.Errorf("dict: value %s missing after build", v)
		}
		codes[i] = c
	}
	return d, codes, nil
}

// Type returns the column type of the dictionary.
func (d *Dictionary) Type() value.Type { return d.typ }

// Size returns the number of distinct values.
func (d *Dictionary) Size() int { return len(d.values) }

// Bytes estimates the DRAM footprint of the dictionary payload.
func (d *Dictionary) Bytes() int64 {
	var b int64
	for _, v := range d.values {
		switch d.typ {
		case value.String:
			b += int64(len(v.Str())) + 16 // string header
		default:
			b += 8
		}
	}
	return b
}

// Encode returns the code of v, or false if v is not in the dictionary.
func (d *Dictionary) Encode(v value.Value) (uint32, bool) {
	i := sort.Search(len(d.values), func(i int) bool { return d.values[i].Compare(v) >= 0 })
	if i < len(d.values) && d.values[i].Equal(v) {
		return uint32(i), true
	}
	return 0, false
}

// Decode returns the value of code c.
func (d *Dictionary) Decode(c uint32) (value.Value, error) {
	if int(c) >= len(d.values) {
		return value.Value{}, fmt.Errorf("dict: code %d out of range (%d values)", c, len(d.values))
	}
	return d.values[c], nil
}

// LowerBound returns the smallest code whose value is >= v; it equals
// Size() if every value is smaller. Because the dictionary is
// order-preserving, [LowerBound(lo), UpperBound(hi)) is the code range
// of the value range [lo, hi].
func (d *Dictionary) LowerBound(v value.Value) uint32 {
	return uint32(sort.Search(len(d.values), func(i int) bool { return d.values[i].Compare(v) >= 0 }))
}

// UpperBound returns the smallest code whose value is > v.
func (d *Dictionary) UpperBound(v value.Value) uint32 {
	return uint32(sort.Search(len(d.values), func(i int) bool { return d.values[i].Compare(v) > 0 }))
}

// BitPacked is an immutable vector of codes stored with the minimal
// fixed bit width (bit-packed value vector of an MRC).
type BitPacked struct {
	bitsPer uint
	n       int
	words   []uint64
}

// Pack stores codes with enough bits for maxCode.
func Pack(codes []uint32, maxCode uint32) *BitPacked {
	width := uint(bits.Len32(maxCode))
	if width == 0 {
		width = 1
	}
	v := &BitPacked{bitsPer: width, n: len(codes)}
	v.words = make([]uint64, (uint(len(codes))*width+63)/64)
	for i, c := range codes {
		v.set(i, c)
	}
	return v
}

func (v *BitPacked) set(i int, c uint32) {
	bitPos := uint(i) * v.bitsPer
	word, off := bitPos/64, bitPos%64
	v.words[word] |= uint64(c) << off
	if off+v.bitsPer > 64 {
		v.words[word+1] |= uint64(c) >> (64 - off)
	}
}

// Get returns the code at position i.
func (v *BitPacked) Get(i int) uint32 {
	bitPos := uint(i) * v.bitsPer
	word, off := bitPos/64, bitPos%64
	raw := v.words[word] >> off
	if off+v.bitsPer > 64 {
		raw |= v.words[word+1] << (64 - off)
	}
	return uint32(raw & (1<<v.bitsPer - 1))
}

// Len returns the number of codes.
func (v *BitPacked) Len() int { return v.n }

// Bits returns the per-code bit width.
func (v *BitPacked) Bits() uint { return v.bitsPer }

// Bytes returns the packed payload size in bytes.
func (v *BitPacked) Bytes() int64 { return int64(len(v.words) * 8) }

// ScanEqualIn appends positions in [rowLo, rowHi) with code c to out.
func (v *BitPacked) ScanEqualIn(c uint32, rowLo, rowHi int, out []uint32) []uint32 {
	return v.scan(c, 1, rowLo, rowHi, out)
}

// ScanRangeIn appends positions in [rowLo, rowHi) with code in [lo, hi)
// to out, in ascending order; morsel-driven parallel scans call it with
// disjoint row ranges.
func (v *BitPacked) ScanRangeIn(lo, hi uint32, rowLo, rowHi int, out []uint32) []uint32 {
	if lo >= hi {
		return out
	}
	return v.scan(lo, hi-lo, rowLo, rowHi, out)
}

// scan is the one scan kernel: it appends the positions in [rowLo, rowHi)
// whose code lies in [lo, lo+width). It walks the packed words carrying
// (word, bit offset) forward by the code width instead of locating every
// row from scratch, tests membership as one unsigned compare
// (code-lo < width) and writes every position to out's tail, keeping it
// only when it matched — no branch depends on the data, so a row costs
// the same at any selectivity. out is grown by rowHi-rowLo up front; a
// caller that reuses its buffer pays for that once.
func (v *BitPacked) scan(lo, width uint32, rowLo, rowHi int, out []uint32) []uint32 {
	rowLo, rowHi = max(rowLo, 0), min(rowHi, v.n)
	if rowLo >= rowHi {
		return out
	}
	n := len(out)
	out = slices.Grow(out, rowHi-rowLo)[:n+rowHi-rowLo]
	words, bits, mask := v.words, v.bitsPer, uint32(1)<<v.bitsPer-1
	pos, endBit := uint(rowLo)*bits, uint(rowHi)*bits
	w, off, row := pos/64, pos%64, uint32(rowLo)
	for ; w*64 < endBit; w++ {
		x := words[w]
		// The codes that lie wholly in this word; in the last word of the
		// range they stop where the range does.
		end := min(64, endBit-w*64)
		for ; off+bits <= end; off += bits {
			out[n] = row
			if uint32(x>>(off&63))&mask-lo < width { // off < 64: the mask spares the shift its overflow guard
				n++
			}
			row++
		}
		if off < end { // one code straddles into the next word
			out[n] = row
			if uint32(x>>(off&63)|words[w+1]<<((64-off)&63))&mask-lo < width {
				n++
			}
			row++
			off += bits
		}
		off -= 64
	}
	return out[:n]
}
