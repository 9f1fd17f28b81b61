// Package dict implements order-preserving dictionary encoding with
// bit-packed code vectors — the storage format of Memory-Resident
// Columns (MRCs) and the de-facto standard for main partitions of HTAP
// databases (paper Section II-A; SAP HANA, HyPer). The dictionary is a
// sorted array of distinct values; codes are positions in that array, so
// code order equals value order and range predicates translate to code
// ranges. Codes are packed with the minimal number of bits. The same
// code order makes the index of a column a grouping of its rows by code.
package dict

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"

	"tierdb/internal/value"
)

// Dictionary is an immutable, order-preserving mapping between values of
// one column and dense integer codes. The sorted distinct values live in
// one slice of their payload type (Values) — 8 bytes an entry for
// numbers, a string header for strings — not as value.Value; floats are
// in cmp.Compare's order (value.Compare's).
type Dictionary struct {
	vals  Values
	size  int
	bytes int64 // the payload footprint, summed once
}

// Build constructs a dictionary over vals and returns it together with
// the code of each input value. All values must share one type. It is
// Merge with no old dictionary and vals as a delta every row of which
// joins, so the values are sorted once, by their typed payload; the
// dictionary's strings share one allocation that aliases none of vals.
func Build(typ value.Type, vals []value.Value) (*Dictionary, []uint32, error) {
	rows := make([]uint32, len(vals))
	delta := Values{Type: typ}
	for i, v := range vals {
		if v.Type() != typ {
			return nil, nil, fmt.Errorf("dict: value %d has type %s, want %s", i, v.Type(), typ)
		}
		rows[i] = uint32(i)
		delta.Append(v)
	}
	d, codes := Merge(typ, nil, nil, delta, rows)
	packStrings(d.vals.Strs)
	return d, codes, nil
}

// Values is a column's values in one slice of their payload type: Ints,
// Floats or Strs, whichever Type names. A delta partition keeps its
// unsorted dictionary this way, and Merge reads it in place.
type Values struct {
	Type   value.Type
	Ints   []int64
	Floats []float64
	Strs   []string
}

// Len returns the number of values.
func (vs *Values) Len() int { return len(vs.Ints) + len(vs.Floats) + len(vs.Strs) }

// At returns value i, which must be below Len.
func (vs *Values) At(i int) value.Value {
	switch vs.Type {
	case value.Int64:
		return value.NewInt(vs.Ints[i])
	case value.Float64:
		return value.NewFloat(vs.Floats[i])
	}
	return value.NewString(vs.Strs[i])
}

// Append appends v, which must have type vs.Type.
func (vs *Values) Append(v value.Value) {
	switch vs.Type {
	case value.Int64:
		vs.Ints = append(vs.Ints, v.Int())
	case value.Float64:
		vs.Floats = append(vs.Floats, v.Float())
	default:
		vs.Strs = append(vs.Strs, v.Str())
	}
}

// Bytes is the payload footprint of the values from index from on: 8
// bytes a number, a string's bytes plus its 16-byte header.
func (vs *Values) Bytes(from int) int64 {
	if vs.Type != value.String {
		return 8 * int64(vs.Len()-from)
	}
	var b int64
	for _, s := range vs.Strs[from:] {
		b += int64(len(s)) + 16
	}
	return b
}

// Merge builds the dictionary of a merged column (the column-wise merge
// of Krüger et al., PVLDB 2011) from the old dictionary with the codes
// of the old rows that survive, and a delta dictionary — values in any
// order — with the codes of the delta rows that join them; old may be
// nil, and old and delta must have type typ. Entries no row references
// are dropped, only the referenced delta values are sorted, and the
// result is one linear merge of the two sorted runs. It returns the
// dictionary and every row's code in it, the old rows' first, translated
// through one old→new and one delta→new table. The dictionary is
// right-sized and aliases none of the inputs' slices; its strings are
// the inputs' own.
func Merge(typ value.Type, old *Dictionary, oldCodes []uint32, delta Values, deltaCodes []uint32) (*Dictionary, []uint32) {
	if old == nil {
		old = &Dictionary{}
	}
	d := &Dictionary{vals: Values{Type: typ}}
	var oldMap, deltaMap []uint32
	switch typ {
	case value.Int64:
		d.vals.Ints, oldMap, deltaMap = merge(old.vals.Ints, oldCodes, delta.Ints, deltaCodes)
	case value.Float64:
		d.vals.Floats, oldMap, deltaMap = merge(old.vals.Floats, oldCodes, delta.Floats, deltaCodes)
	default:
		d.vals.Strs, oldMap, deltaMap = merge(old.vals.Strs, oldCodes, delta.Strs, deltaCodes)
	}
	d.size, d.bytes = d.vals.Len(), d.vals.Bytes(0)
	codes := make([]uint32, len(oldCodes)+len(deltaCodes))
	for r, c := range oldCodes {
		codes[r] = oldMap[c]
	}
	for r, c := range deltaCodes {
		codes[len(oldCodes)+r] = deltaMap[c]
	}
	return d, codes
}

// merge is Merge over one payload type: it returns the merged sorted run
// and the old→new and delta→new code tables.
func merge[T cmp.Ordered](old []T, oldCodes []uint32, delta []T, deltaCodes []uint32) ([]T, []uint32, []uint32) {
	oldMap, deltaMap := referenced(oldCodes, len(old)), referenced(deltaCodes, len(delta))
	type ref struct {
		v T
		c uint32 // the entry's delta code
	}
	var refs []ref // the referenced delta entries, then in value order
	for c, m := range deltaMap {
		if m != unused {
			refs = append(refs, ref{delta[c], uint32(c)})
		}
	}
	slices.SortFunc(refs, func(a, b ref) int { return cmp.Compare(a.v, b.v) })
	values := make([]T, 0, len(old)+len(refs))
	for i, j := 0, 0; ; {
		for i < len(old) && oldMap[i] == unused {
			i++
		}
		if i == len(old) && j == len(refs) {
			break
		}
		c := 1 // where the next value comes from: <0 old, >0 delta, 0 both
		if i < len(old) {
			c = -1
			if j < len(refs) {
				c = cmp.Compare(old[i], refs[j].v)
			}
		}
		code := uint32(len(values))
		if c <= 0 {
			values = append(values, old[i])
			oldMap[i] = code
			i++
		} else if n := len(values); n > 0 && cmp.Compare(values[n-1], refs[j].v) == 0 {
			code-- // a delta value repeated
		} else {
			values = append(values, refs[j].v)
		}
		if c >= 0 {
			deltaMap[refs[j].c] = code
			j++
		}
	}
	return append(make([]T, 0, len(values)), values...), oldMap, deltaMap
}

// unused marks a dictionary entry no row references.
const unused = ^uint32(0)

// referenced returns a translation table for a dictionary of size
// entries: 0 for every entry some code references, unused otherwise.
func referenced(codes []uint32, size int) []uint32 {
	m := make([]uint32, size)
	for i := range m {
		m[i] = unused
	}
	for _, c := range codes {
		m[c] = 0
	}
	return m
}

// packStrings moves strs into one allocation, so the dictionary keeps
// alive exactly its distinct values and not whatever larger buffers the
// inputs were cut from.
func packStrings(strs []string) {
	var b strings.Builder
	for _, s := range strs {
		b.WriteString(s)
	}
	all := b.String()
	for i, s := range strs {
		strs[i], all = all[:len(s)], all[len(s):]
	}
}

// FromSorted returns the dictionary of the values vs, which must be
// strictly ascending in cmp.Compare's order — how a checkpoint stores a
// dictionary (Values) and recovery adopts it. It keeps vs's slices.
func FromSorted(vs Values) (*Dictionary, error) {
	for i := 1; i < vs.Len(); i++ {
		if vs.At(i-1).Compare(vs.At(i)) >= 0 {
			return nil, fmt.Errorf("dict: value %d (%v) not above value %d (%v)", i, vs.At(i), i-1, vs.At(i-1))
		}
	}
	return &Dictionary{vals: vs, size: vs.Len(), bytes: vs.Bytes(0)}, nil
}

// Values returns the sorted distinct values; the slices are the
// dictionary's own and must not be modified.
func (d *Dictionary) Values() Values { return d.vals }

// Pack packs the codes of rows of the dictionary's column with the
// fewest bits its size needs.
func (d *Dictionary) Pack(codes []uint32) *BitPacked {
	return Pack(codes, uint32(max(d.size-1, 0)))
}

// Type returns the column type of the dictionary.
func (d *Dictionary) Type() value.Type { return d.vals.Type }

// Size returns the number of distinct values.
func (d *Dictionary) Size() int { return d.size }

// Bytes estimates the DRAM footprint of the dictionary payload: 8 bytes
// a number, a string's bytes plus its 16-byte header.
func (d *Dictionary) Bytes() int64 { return d.bytes }

// At returns the value of code i, which must be below Size.
func (d *Dictionary) At(i int) value.Value { return d.vals.At(i) }

// Decode returns the value of code c.
func (d *Dictionary) Decode(c uint32) (value.Value, error) {
	if int(c) >= d.size {
		return value.Value{}, fmt.Errorf("dict: code %d out of range (%d values)", c, d.size)
	}
	return d.At(int(c)), nil
}

// Encode returns the code of v, or false if v is not in the dictionary.
func (d *Dictionary) Encode(v value.Value) (uint32, bool) {
	i := d.LowerBound(v)
	if int(i) < d.size && v.Type() == d.vals.Type && d.At(int(i)).Equal(v) {
		return i, true
	}
	return 0, false
}

// LowerBound returns the smallest code whose value is >= v; it equals
// Size() if every value is smaller. Because the dictionary is
// order-preserving, [LowerBound(lo), UpperBound(hi)) is the code range
// of the value range [lo, hi].
func (d *Dictionary) LowerBound(v value.Value) uint32 { return d.search(v, 0) }

// UpperBound returns the smallest code whose value is > v.
func (d *Dictionary) UpperBound(v value.Value) uint32 { return d.search(v, 1) }

// search returns the smallest code whose value compares to v at least
// above: 0 for LowerBound, 1 for UpperBound.
func (d *Dictionary) search(v value.Value, above int) uint32 {
	switch d.vals.Type {
	case value.Int64:
		return bound(d.vals.Ints, v.Int(), above)
	case value.Float64:
		return bound(d.vals.Floats, v.Float(), above)
	}
	return bound(d.vals.Strs, v.Str(), above)
}

// bound returns the smallest i with cmp.Compare(s[i], x) >= above.
func bound[T cmp.Ordered](s []T, x T, above int) uint32 {
	return uint32(sort.Search(len(s), func(i int) bool { return cmp.Compare(s[i], x) >= above }))
}

// Index is a group-key index over a dictionary-encoded column (Faust et
// al., ADMS 2012): the column's dictionary, one offset per code, and the
// column's positions grouped by code, ascending within each code. Codes
// follow value order, so an equality is one code and a range one run of
// codes — either way a single slice of positions. It is immutable and
// shares the dictionary.
type Index struct {
	dict      *Dictionary
	offsets   []uint32 // code c's positions are positions[offsets[c]:offsets[c+1]]
	positions []uint32
}

// NewIndex returns the index of a column with dictionary d whose row i
// has code codes[i]: a counting sort groups the rows by code.
func NewIndex(d *Dictionary, codes []uint32) *Index {
	// offsets[c] is first the count of code c's rows, then where they
	// start, and after the scatter where they end — where code c+1's
	// start, which one shift puts in place.
	offsets := make([]uint32, d.size+1)
	for _, c := range codes {
		offsets[c]++
	}
	at := uint32(0)
	for c, n := range offsets[:d.size] {
		offsets[c], at = at, at+n
	}
	positions := make([]uint32, len(codes))
	for row, c := range codes {
		positions[offsets[c]] = uint32(row)
		offsets[c]++
	}
	copy(offsets[1:], offsets[:d.size])
	offsets[0] = 0
	return &Index{dict: d, offsets: offsets, positions: positions}
}

// Eq returns the positions whose value equals v, ascending. The slice is
// the index's own and must not be modified.
func (x *Index) Eq(v value.Value) []uint32 {
	c, ok := x.dict.Encode(v)
	if !ok {
		return nil
	}
	return x.codes(c, c+1)
}

// Between returns the positions whose value lies in [lo, hi], grouped by
// value in ascending order; it is empty when lo > hi. The slice is the
// index's own and must not be modified.
func (x *Index) Between(lo, hi value.Value) []uint32 {
	return x.codes(x.dict.LowerBound(lo), x.dict.UpperBound(hi))
}

// codes returns the positions of the codes in [lo, hi), capped so that
// an append to it copies.
func (x *Index) codes(lo, hi uint32) []uint32 {
	if lo >= hi {
		return nil
	}
	end := x.offsets[hi]
	return x.positions[x.offsets[lo]:end:end]
}

// ZoneRows is the number of rows of a zone: the vector keeps the
// smallest and largest code of rows [z·ZoneRows, (z+1)·ZoneRows), so a
// scan can pass over a zone no code of its range can occur in. It is a
// multiple of 64, so at any code width a zone starts on a word boundary.
const ZoneRows = 4096

// BitPacked is an immutable vector of codes stored with the minimal
// fixed bit width (bit-packed value vector of an MRC), with the code
// bounds of each zone. The zones are rebuilt from the codes by both
// constructors and are not part of the packed payload.
type BitPacked struct {
	bitsPer uint
	n       int
	words   []uint64
	zones   []zone
}

// zone is the smallest and the largest code of one zone's rows.
type zone struct{ lo, hi uint32 }

// noZone is the bounds of no code, what a zone's first code replaces.
var noZone = zone{^uint32(0), 0}

// with returns z widened to code c.
func (z zone) with(c uint32) zone { return zone{min(z.lo, c), max(z.hi, c)} }

// Pack stores codes with enough bits for maxCode.
func Pack(codes []uint32, maxCode uint32) *BitPacked {
	width := uint(bits.Len32(maxCode))
	if width == 0 {
		width = 1
	}
	v := &BitPacked{bitsPer: width, n: len(codes), zones: make([]zone, 0, zoneCount(len(codes)))}
	v.words = make([]uint64, (uint(len(codes))*width+63)/64)
	for lo := 0; lo < len(codes); lo += ZoneRows {
		z := noZone
		for i, c := range codes[lo:min(lo+ZoneRows, len(codes))] {
			v.set(lo+i, c)
			z = z.with(c)
		}
		v.zones = append(v.zones, z)
	}
	return v
}

// zoneCount is the number of zones of n rows.
func zoneCount(n int) int { return (n + ZoneRows - 1) / ZoneRows }

// Admits reports whether zone z may hold a code in [lo, hi).
func (v *BitPacked) Admits(z int, lo, hi uint32) bool {
	return lo < hi && v.zones[z].lo < hi && v.zones[z].hi >= lo
}

// Unpack returns the vector of n codes packed width bits each into
// words, as Words returns them — how a checkpoint stores an MRC's codes.
// It fails unless width is 1 to 32, words holds exactly n codes and
// every code is below limit, the size of the codes' dictionary.
func Unpack(width uint, n int, words []uint64, limit uint32) (*BitPacked, error) {
	if width < 1 || width > 32 {
		return nil, fmt.Errorf("dict: code width %d", width)
	}
	if uint64(len(words)) != (uint64(n)*uint64(width)+63)/64 {
		return nil, fmt.Errorf("dict: %d words for %d %d-bit codes", len(words), n, width)
	}
	v := &BitPacked{bitsPer: width, n: n, words: words, zones: make([]zone, 0, zoneCount(n))}
	for lo := 0; lo < n; lo += ZoneRows {
		z := noZone
		for i := lo; i < min(lo+ZoneRows, n); i++ {
			c := v.Get(i)
			if c >= limit {
				return nil, fmt.Errorf("dict: code %d at row %d, dictionary holds %d", c, i, limit)
			}
			z = z.with(c)
		}
		v.zones = append(v.zones, z)
	}
	return v, nil
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

// Words returns the packed payload; the slice is the vector's own and
// must not be modified.
func (v *BitPacked) Words() []uint64 { return v.words }

// Bytes returns the packed payload size in bytes.
func (v *BitPacked) Bytes() int64 { return int64(len(v.words) * 8) }

// ScanRangeIn appends positions in [rowLo, rowHi) with code in [lo, hi)
// to out, in ascending order; morsel-driven parallel scans call it with
// disjoint row ranges.
func (v *BitPacked) ScanRangeIn(lo, hi uint32, rowLo, rowHi int, out []uint32) []uint32 {
	if lo >= hi {
		return out
	}
	return v.scan(lo, hi-lo, rowLo, rowHi, out)
}

// Probe appends the candidates whose code lies in [lo, hi) to out, one
// dependent access per candidate.
func (v *BitPacked) Probe(lo, hi uint32, candidates, out []uint32) []uint32 {
	if lo >= hi {
		return out
	}
	for _, pos := range candidates {
		if v.Get(int(pos))-lo < hi-lo {
			out = append(out, pos)
		}
	}
	return out
}

// wordBits is the widest code scan compares a window at a time. A window
// holds at least four such codes; of 24-bit codes it holds two, and a
// range over them ran slower than the per-row loop (BenchmarkScanKernel).
const wordBits = 16

// scan is the one scan kernel: it appends the positions in [rowLo, rowHi)
// whose code lies in [lo, lo+width) to out, in ascending order. A code of
// up to wordBits bits is tested a window at a time (scanWindows), which
// appends only the matches, so a buffer with room for them does not grow;
// a wider code runs the per-row loop (scanRows).
func (v *BitPacked) scan(lo, width uint32, rowLo, rowHi int, out []uint32) []uint32 {
	rowLo, rowHi = max(rowLo, 0), min(rowHi, v.n)
	switch {
	case lo>>v.bitsPer != 0: // past the code space: no row matches
		return out
	case v.bitsPer > wordBits:
		return v.scanRows(lo, width, rowLo, rowHi, out)
	}
	f := newFields(v.bitsPer, lo, width)
	return v.scanWindows(&f, rowLo, rowHi, out)
}

// fields is a predicate over the per codes of a 64-bit window of k-bit
// codes: h has the top bit of each field set, low the bits below it.
// An equality XORs the window with lo broadcast and finds the zero
// fields; a range is two field-wise unsigned >= tests, the upper one off
// (hiOn == 0) when hi is past the code space.
type fields struct {
	per                  int
	h, low, lo, hi, hiOn uint64
	eq                   bool
	at                   [64]uint8 // at[b] is the field whose top bit is bit b
}

// newFields returns the predicate [lo, lo+width) over k-bit codes.
func newFields(k uint, lo, width uint32) fields {
	f := fields{per: int(64 / k), eq: width == 1}
	ones := uint64(0)
	for i := uint(0); i < uint(f.per); i++ {
		ones |= 1 << (i * k)
		f.at[i*k+k-1] = uint8(i)
	}
	f.h = ones << (k - 1)
	f.low, f.lo = f.h-ones, uint64(lo)*ones
	if hi := uint64(lo) + uint64(width); hi>>k == 0 {
		f.hi, f.hiOn = hi*ones, f.h
	}
	return f
}

// atLeast returns the top bit of each field of a whose code is >= b's.
func atLeast(a, b, h uint64) uint64 {
	return (a&^b | ^(a^b)&((a|h)-(b&^h))) & h
}

// scanWindows appends the matches in rows [r, end), which start a
// window: one funnel shift loads each window of per codes, an empty
// match mask skips it, and each set bit is one position. Only the last
// word has no next word to shift in, and only the last window may hold
// rows past end, which its mask drops.
func (v *BitPacked) scanWindows(f *fields, r, end int, out []uint32) []uint32 {
	words, k := v.words, v.bitsPer
	for p, step := uint(r)*k, uint(f.per)*k; r < end; r, p = r+f.per, p+step {
		w, off := p>>6, p&63
		x := words[w] >> off
		if w+1 < uint(len(words)) {
			x |= (words[w+1] << 1) << (63 - off)
		}
		var m uint64
		if f.eq {
			z := x ^ f.lo
			m = ^((z&f.low + f.low) | z) & f.h
		} else {
			m = atLeast(x, f.lo, f.h) &^ (atLeast(x, f.hi, f.h) & f.hiOn)
		}
		if left := end - r; left < f.per {
			m &= 1<<(uint(left)*k) - 1
		}
		for ; m != 0; m &= m - 1 {
			out = append(out, uint32(r)+uint32(f.at[bits.TrailingZeros64(m)&63]))
		}
	}
	return out
}

// scanRows is the per-row loop: it walks the packed words carrying
// (word, bit offset) forward by the code width instead of locating every
// row from scratch, tests membership as one unsigned compare
// (code-lo < width) and writes every position to out's tail, keeping it
// only when it matched — no branch depends on the data, so a row costs
// the same at any selectivity. out is grown by rowHi-rowLo up front.
func (v *BitPacked) scanRows(lo, width uint32, rowLo, rowHi int, out []uint32) []uint32 {
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
