package dict

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"tierdb/internal/value"
)

func intValues(vs ...int64) []value.Value {
	out := make([]value.Value, len(vs))
	for i, v := range vs {
		out[i] = value.NewInt(v)
	}
	return out
}

func TestBuildEncodesOrderPreserving(t *testing.T) {
	vals := intValues(30, 10, 20, 10, 30, 30)
	d, codes, err := Build(value.Int64, vals)
	if err != nil {
		t.Fatal(err)
	}
	if d.Size() != 3 {
		t.Fatalf("Size = %d, want 3", d.Size())
	}
	// Order preservation: code(10) < code(20) < code(30).
	want := []uint32{2, 0, 1, 0, 2, 2}
	for i, c := range codes {
		if c != want[i] {
			t.Errorf("codes[%d] = %d, want %d", i, c, want[i])
		}
	}
	for i, v := range vals {
		got, err := d.Decode(codes[i])
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(v) {
			t.Errorf("Decode(Encode(%v)) = %v", v, got)
		}
	}
}

func TestBuildRejectsMixedTypes(t *testing.T) {
	_, _, err := Build(value.Int64, []value.Value{value.NewInt(1), value.NewString("x")})
	if err == nil {
		t.Error("mixed types accepted")
	}
}

func TestEncodeMissingValue(t *testing.T) {
	d, _, _ := Build(value.Int64, intValues(1, 2, 3))
	if _, ok := d.Encode(value.NewInt(9)); ok {
		t.Error("Encode found missing value")
	}
}

func TestDecodeOutOfRange(t *testing.T) {
	d, _, _ := Build(value.Int64, intValues(1))
	if _, err := d.Decode(5); err == nil {
		t.Error("Decode accepted out-of-range code")
	}
}

func TestBounds(t *testing.T) {
	d, _, _ := Build(value.Int64, intValues(10, 20, 30))
	if lb := d.LowerBound(value.NewInt(15)); lb != 1 {
		t.Errorf("LowerBound(15) = %d, want 1", lb)
	}
	if lb := d.LowerBound(value.NewInt(20)); lb != 1 {
		t.Errorf("LowerBound(20) = %d, want 1", lb)
	}
	if ub := d.UpperBound(value.NewInt(20)); ub != 2 {
		t.Errorf("UpperBound(20) = %d, want 2", ub)
	}
	if lb := d.LowerBound(value.NewInt(99)); lb != 3 {
		t.Errorf("LowerBound(99) = %d, want 3 (Size)", lb)
	}
	if ub := d.UpperBound(value.NewInt(5)); ub != 0 {
		t.Errorf("UpperBound(5) = %d, want 0", ub)
	}
}

func TestStringDictionary(t *testing.T) {
	vals := []value.Value{value.NewString("beta"), value.NewString("alpha"), value.NewString("gamma"), value.NewString("alpha")}
	d, codes, err := Build(value.String, vals)
	if err != nil {
		t.Fatal(err)
	}
	if d.Size() != 3 {
		t.Fatalf("Size = %d", d.Size())
	}
	if codes[1] != 0 || codes[3] != 0 {
		t.Error("alpha should have the smallest code")
	}
	if d.Bytes() <= 0 {
		t.Error("Bytes should be positive")
	}
	if d.Type() != value.String {
		t.Error("Type mismatch")
	}
}

func TestBitPackedRoundTrip(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(500) + 1
		maxCode := uint32(rng.Intn(1 << 20))
		codes := make([]uint32, n)
		for i := range codes {
			codes[i] = uint32(rng.Int63n(int64(maxCode) + 1))
		}
		v := Pack(codes, maxCode)
		if v.Len() != n {
			return false
		}
		for i, c := range codes {
			if v.Get(i) != c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBitPackedWidth(t *testing.T) {
	v := Pack([]uint32{0, 1, 2, 3}, 3)
	if v.Bits() != 2 {
		t.Errorf("Bits = %d, want 2", v.Bits())
	}
	v = Pack([]uint32{0}, 0)
	if v.Bits() != 1 {
		t.Errorf("Bits(max 0) = %d, want 1", v.Bits())
	}
	// 1000 2-bit codes = 2000 bits = 32 words = 256 bytes.
	v = Pack(make([]uint32, 1000), 3)
	if v.Bytes() != 256 {
		t.Errorf("Bytes = %d, want 256", v.Bytes())
	}
}

func TestBitPackedCrossesWordBoundaries(t *testing.T) {
	// 20-bit codes force values to straddle 64-bit word boundaries.
	codes := make([]uint32, 100)
	for i := range codes {
		codes[i] = uint32(i * 10007 % (1 << 20))
	}
	v := Pack(codes, 1<<20-1)
	for i, c := range codes {
		if v.Get(i) != c {
			t.Fatalf("Get(%d) = %d, want %d", i, v.Get(i), c)
		}
	}
}

// TestZonesSurviveUnpack holds both constructors to one zone map: a
// vector rebuilt from its words, as recovery adopts a checkpointed MRC,
// has the zones Pack computed; each zone holds its rows' smallest and
// largest code; and Admits answers from them, empty ranges and lo > hi
// included.
func TestZonesSurviveUnpack(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, ZoneRows - 1, ZoneRows, 3*ZoneRows + 77} {
		codes := make([]uint32, n)
		for i := range codes {
			codes[i] = uint32(i/1000 + rng.Intn(3)) // clustered, as a load by warehouse is
		}
		limit := uint32(n/1000 + 3)
		v := Pack(codes, limit-1)
		u, err := Unpack(v.Bits(), v.Len(), v.Words(), limit)
		if err != nil {
			t.Fatal(err)
		}
		if len(v.zones) != zoneCount(n) || !slices.Equal(u.zones, v.zones) {
			t.Fatalf("n %d: Pack zones %v, Unpack zones %v", n, v.zones, u.zones)
		}
		for z, b := range v.zones {
			rows := codes[z*ZoneRows : min((z+1)*ZoneRows, n)]
			if b != (zone{slices.Min(rows), slices.Max(rows)}) {
				t.Fatalf("n %d zone %d: bounds %v, rows span [%d, %d]", n, z, b, slices.Min(rows), slices.Max(rows))
			}
			if !v.Admits(z, b.lo, b.lo+1) || !v.Admits(z, b.hi, b.hi+1) || !v.Admits(z, 0, limit) ||
				v.Admits(z, b.hi+1, limit+1) || v.Admits(z, 0, b.lo) || v.Admits(z, b.hi, b.lo) || v.Admits(z, b.lo, b.lo) {
				t.Fatalf("n %d zone %d %v: Admits disagrees with the bounds", n, z, b)
			}
		}
	}
}

func TestScanEqualAndRange(t *testing.T) {
	codes := []uint32{5, 1, 5, 3, 5, 2}
	v := Pack(codes, 5)
	got := v.ScanRangeIn(5, 6, 0, v.Len(), nil)
	want := []uint32{0, 2, 4}
	if len(got) != len(want) {
		t.Fatalf("ScanRangeIn(5, 6) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ScanRangeIn(5, 6) = %v, want %v", got, want)
		}
	}
	got = v.ScanRangeIn(2, 4, 0, v.Len(), nil)
	want = []uint32{3, 5}
	if len(got) != 2 || got[0] != 3 || got[1] != 5 {
		t.Fatalf("ScanRange = %v, want %v", got, want)
	}
}

func TestDictionaryCodeRangePredicate(t *testing.T) {
	// End-to-end: a range predicate on values maps to a code range.
	vals := intValues(15, 42, 8, 23, 42, 4, 16)
	d, codes, _ := Build(value.Int64, vals)
	packed := Pack(codes, uint32(d.Size()-1))
	lo := d.LowerBound(value.NewInt(10))
	hi := d.UpperBound(value.NewInt(25))
	positions := packed.ScanRangeIn(lo, hi, 0, packed.Len(), nil)
	// Values in [10,25]: 15 (pos 0), 23 (pos 3), 16 (pos 6).
	want := map[uint32]bool{0: true, 3: true, 6: true}
	if len(positions) != len(want) {
		t.Fatalf("positions = %v", positions)
	}
	for _, p := range positions {
		if !want[p] {
			t.Fatalf("unexpected position %d", p)
		}
	}
	// The index answers it as one slice, grouped by value; an absent
	// value, lo > hi and an empty column answer nothing.
	idx := NewIndex(d, codes)
	if got := idx.Between(value.NewInt(10), value.NewInt(25)); !slices.Equal(got, []uint32{0, 6, 3}) {
		t.Errorf("Between(10, 25) = %v, want [0 6 3]", got)
	}
	if got := idx.Eq(value.NewInt(42)); !slices.Equal(got, []uint32{1, 4}) || idx.dict != d {
		t.Errorf("Eq(42) = %v, want [1 4]", got)
	}
	empty, _, _ := Build(value.Int64, nil)
	for _, got := range [][]uint32{idx.Eq(value.NewInt(5)), idx.Between(value.NewInt(25), value.NewInt(10)),
		NewIndex(empty, nil).Between(value.NewInt(math.MinInt64), value.NewInt(math.MaxInt64))} {
		if len(got) != 0 {
			t.Errorf("got %v, want no positions", got)
		}
	}
}

// scanReference is the kernel's specification: a Get per row.
func scanReference(v *BitPacked, lo, hi uint64, rowLo, rowHi int, out []uint32) []uint32 {
	for i := max(rowLo, 0); i < min(rowHi, v.Len()); i++ {
		if c := uint64(v.Get(i)); c >= lo && c < hi {
			out = append(out, uint32(i))
		}
	}
	return out
}

// checkScan compares ScanRangeIn over [rowLo, rowHi) with the reference,
// for [lo, hi) and for the one code lo, appending to a pre-filled out
// that must survive. The code 1<<32-1 has no one-code range: lo+1 wraps
// to the empty range [lo, 0), in the reference too.
func checkScan(t *testing.T, v *BitPacked, lo, hi uint32, rowLo, rowHi int) {
	t.Helper()
	prefix := []uint32{7, 7, 7}
	want := scanReference(v, uint64(lo), uint64(hi), rowLo, rowHi, slices.Clone(prefix))
	if got := v.ScanRangeIn(lo, hi, rowLo, rowHi, slices.Clone(prefix)); !slices.Equal(got, want) {
		t.Fatalf("bits %d n %d: ScanRangeIn(%d, %d, %d, %d) = %v, want %v", v.Bits(), v.Len(), lo, hi, rowLo, rowHi, got, want)
	}
	want = scanReference(v, uint64(lo), uint64(lo+1), rowLo, rowHi, slices.Clone(prefix))
	if got := v.ScanRangeIn(lo, lo+1, rowLo, rowHi, slices.Clone(prefix)); !slices.Equal(got, want) {
		t.Fatalf("bits %d n %d: ScanRangeIn(%d, %d+1, %d, %d) = %v, want %v", v.Bits(), v.Len(), lo, lo, rowLo, rowHi, got, want)
	}
}

// randomPacked packs n random codes of the given width.
func randomPacked(rng *rand.Rand, width uint, n int) *BitPacked {
	maxCode := uint32(1)<<width - 1
	codes := make([]uint32, n)
	for i := range codes {
		codes[i] = rng.Uint32() & maxCode
	}
	return Pack(codes, maxCode)
}

// TestScanKernelMatchesGet holds the word-stepping kernel to the Get
// loop for every code width, over row ranges that start and end
// mid-word, end on the last partial word (rowHi == n), are empty or lie
// outside the vector, and over code ranges that are empty (lo == hi),
// reach the top of the code space and cover one code (Eq).
func TestScanKernelMatchesGet(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for width := uint(1); width <= 32; width++ {
		maxCode := uint32(1)<<width - 1
		for _, n := range []int{0, 1, 63, 64, 65, 130, 1000} {
			v := randomPacked(rng, width, n)
			checkScan(t, v, 0, maxCode, 0, n) // hi == 1<<bits - 1; the full code space is below
			checkScan(t, v, maxCode, maxCode, 0, n)
			checkScan(t, v, 0, 0, -5, n+5)
			for k := 0; k < 40; k++ {
				rowLo := rng.Intn(n + 1)
				rowHi := rowLo + rng.Intn(n+1-rowLo)
				if k%4 == 0 {
					rowHi = n
				}
				lo := rng.Uint32() & maxCode
				hi := lo + uint32(rng.Int63n(int64(maxCode-lo)+1))
				checkScan(t, v, lo, hi, rowLo, rowHi)
			}
			if width < 32 { // hi == 1<<bits: every code qualifies
				checkScan(t, v, 0, maxCode+1, 3, n)
			}
		}
	}
	// The word-parallel path's seams, at widths up to one past wordBits.
	for width := uint(1); width <= wordBits+1; width++ {
		maxCode, per := uint32(1)<<width-1, int(64/width)
		// Every length up to four words ends the last full window on the
		// penultimate word, on the last, and mid-window.
		for n := 1; n <= 4*64/int(width)+2; n++ {
			v := randomPacked(rng, width, n)
			lo := rng.Uint32() & maxCode
			checkScan(t, v, lo, lo+1, 0, n)
			checkScan(t, v, lo/2, maxCode/2+lo/2+1, 0, n)
			checkScan(t, v, lo, maxCode+1, 1, n)        // hi == 1<<bits, lo > 0
			checkScan(t, v, 0, lo+1, 0, n-1)            // lo == 0
			checkScan(t, v, maxCode+1, maxCode+9, 0, n) // lo past the code space
		}
		// Runs of 64 windows that all match, then none, scanned from a
		// run's start and from inside a run.
		block := 64 * per
		codes := make([]uint32, 5*block+per/2)
		for i := range codes {
			if codes[i] = maxCode; i/block%2 == 0 {
				codes[i] = uint32(i) % 2 * (maxCode / 3)
			}
		}
		v := Pack(codes, maxCode)
		for _, rowLo := range []int{0, per + 1, block - 1} {
			checkScan(t, v, 0, 1, rowLo, len(codes))
			checkScan(t, v, 0, maxCode/3+1, rowLo, len(codes))
			checkScan(t, v, 0, maxCode, rowLo, len(codes)-1)
		}
	}
}

// TestScanAllocatesOnlyForMatches holds the word-parallel path to
// appending only its matches: a scan into a buffer whose capacity is the
// match count allocates nothing, sparse or dense, with or without a prefix.
func TestScanAllocatesOnlyForMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, width := range []uint{1, 4, 9, wordBits} {
		v, maxCode := randomPacked(rng, width, 20_000), uint32(1)<<width-1
		for _, r := range [][2]uint32{{maxCode, maxCode + 1}, {1, maxCode / 2}, {0, maxCode + 1}} {
			for _, prefix := range []int{0, 5} {
				want := scanReference(v, uint64(r[0]), uint64(r[1]), 0, v.Len(), make([]uint32, prefix))
				buf := make([]uint32, prefix, len(want))
				if allocs := testing.AllocsPerRun(5, func() { v.ScanRangeIn(r[0], r[1], 0, v.Len(), buf) }); allocs != 0 {
					t.Errorf("width %d [%d, %d) prefix %d: %v allocations", width, r[0], r[1], prefix, allocs)
				}
				if got := v.ScanRangeIn(r[0], r[1], 0, v.Len(), buf); !slices.Equal(got, want) {
					t.Fatalf("width %d [%d, %d): %d positions, want %d", width, r[0], r[1], len(got), len(want))
				}
			}
		}
	}
}

// FuzzBitPackedScan drives the kernel against the Get loop over
// arbitrary widths, lengths, row ranges and code ranges.
func FuzzBitPackedScan(f *testing.F) {
	f.Add(uint8(1), uint16(0), uint16(0), uint16(0), uint32(0), uint32(1), int64(1))
	f.Add(uint8(11), uint16(300), uint16(5), uint16(300), uint32(100), uint32(300), int64(2)) // ends on the last partial word
	f.Add(uint8(17), uint16(130), uint16(63), uint16(65), uint32(9), uint32(9), int64(3))     // lo == hi, mid-word
	f.Add(uint8(32), uint16(70), uint16(1), uint16(69), uint32(0), uint32(1<<32-1), int64(4))
	f.Add(uint8(4), uint16(64), uint16(0), uint16(64), uint32(0), uint32(16), int64(5))         // hi == 1<<bits
	f.Add(uint8(8), uint16(71), uint16(0), uint16(70), uint32(3), uint32(4), int64(6))          // 9 bits: the last full window ends on the penultimate word
	f.Add(uint8(15), uint16(1500), uint16(7), uint16(1500), uint32(9), uint32(10), int64(7))    // 16 bits, the widest word path
	f.Add(uint8(16), uint16(1500), uint16(7), uint16(1499), uint32(9), uint32(70000), int64(8)) // 17 bits, past it
	f.Add(uint8(0), uint16(2000), uint16(1), uint16(2000), uint32(1), uint32(2), int64(9))      // 1 bit, dense
	f.Add(uint8(5), uint16(2000), uint16(33), uint16(2000), uint32(20), uint32(64), int64(10))  // hi == 1<<bits, lo > 0
	f.Add(uint8(11), uint16(1900), uint16(0), uint16(1900), uint32(0), uint32(2000), int64(11)) // lo == 0, dense
	f.Fuzz(func(t *testing.T, width uint8, n, rowLo, rowHi uint16, lo, hi uint32, seed int64) {
		bits := uint(width%32) + 1
		v := randomPacked(rand.New(rand.NewSource(seed)), bits, int(n%2048))
		if bits < 32 {
			lo, hi = lo%(1<<bits), hi%(1<<bits+1)
		}
		checkScan(t, v, lo, hi, int(rowLo), int(rowHi))
	})
}

// naiveDictionary is the dictionary as it was first built: sort every
// value, deduplicate, binary-search each value back to its code.
func naiveDictionary(vals []value.Value) ([]value.Value, []uint32) {
	sorted := slices.Clone(vals)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].Compare(sorted[b]) < 0 })
	sorted = slices.CompactFunc(sorted, value.Value.Equal)
	codes := make([]uint32, len(vals))
	for i, v := range vals {
		c, _ := slices.BinarySearchFunc(sorted, v, value.Value.Compare)
		codes[i] = uint32(c)
	}
	return sorted, codes
}

// specialFloats are the floats an ordering of float64 has to place: NaN
// (equal only to itself), both zeros (equal to each other) and the
// infinities.
var specialFloats = []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1)}

// entries decodes every entry of d, in code order.
func entries(d *Dictionary) []value.Value {
	out := make([]value.Value, d.Size())
	for i := range out {
		out[i] = d.At(i)
	}
	return out
}

// TestBuildMatchesSortEverything builds one column of each type, with
// repeats and, for floats, every special value twice, and requires the
// dictionary and codes the sort-everything construction gives.
func TestBuildMatchesSortEverything(t *testing.T) {
	floats := append(append([]float64{2.5, -1}, specialFloats...), append(specialFloats, 2.5, 7)...)
	columns := [][]value.Value{intValues(3, -9, 3, 0, 1<<40, -9)}
	columns = append(columns, nil, nil)
	for _, f := range floats {
		columns[1] = append(columns[1], value.NewFloat(f))
	}
	for _, s := range []string{"b", "", "ab", "b", "a", ""} {
		columns[2] = append(columns[2], value.NewString(s))
	}
	for typ, vals := range columns {
		d, codes, err := Build(value.Type(typ), vals)
		if err != nil {
			t.Fatal(err)
		}
		naive, naiveCodes := naiveDictionary(vals)
		if !slices.EqualFunc(entries(d), naive, value.Value.Equal) || !slices.Equal(codes, naiveCodes) {
			t.Fatalf("%s: Build = %v %v, sorted = %v %v", value.Type(typ), entries(d), codes, naive, naiveCodes)
		}
		for i, v := range vals {
			if c, ok := d.Encode(v); !ok || c != codes[i] {
				t.Fatalf("%s: Encode(%v) = %d %v, want %d", value.Type(typ), v, c, ok, codes[i])
			}
		}
	}
}

// FuzzDictionaryMerge checks that merging an old dictionary, read through
// the codes of the rows that survive, with a delta dictionary, read
// through the codes of the rows that join, gives the dictionary and
// codes that building over all those rows' values gives — dict.Build and
// the sort-everything construction alike.
func FuzzDictionaryMerge(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(20), uint8(10), uint8(30))
	f.Add(int64(2), uint8(1), uint8(50), uint8(0), uint8(0))
	f.Add(int64(3), uint8(2), uint8(0), uint8(7), uint8(40))
	f.Add(int64(4), uint8(2), uint8(90), uint8(90), uint8(200))
	f.Fuzz(func(t *testing.T, seed int64, kind, oldRows, deltaSize, deltaRows uint8) {
		rng := rand.New(rand.NewSource(seed))
		typ := value.Type(kind % 3)
		draw := func() value.Value {
			switch typ {
			case value.Int64:
				return value.NewInt(int64(rng.Intn(40)))
			case value.Float64:
				if rng.Intn(8) == 0 {
					return value.NewFloat(specialFloats[rng.Intn(len(specialFloats))])
				}
				return value.NewFloat(float64(rng.Intn(40)) / 4)
			}
			return value.NewString(string("abc"[rng.Intn(3)]) + string("xyz"[rng.Intn(3)]))
		}
		oldVals := make([]value.Value, oldRows)
		for i := range oldVals {
			oldVals[i] = draw()
		}
		old, allOld, err := Build(typ, oldVals)
		if err != nil {
			t.Fatal(err)
		}
		var keep []uint32 // a subset of the old rows survives
		var rows []value.Value
		for i, c := range allOld {
			if rng.Intn(3) > 0 {
				keep = append(keep, c)
				rows = append(rows, oldVals[i])
			}
		}
		var delta []value.Value // distinct, in insertion order
		for i := 0; i < int(deltaSize); i++ {
			if v := draw(); !slices.ContainsFunc(delta, v.Equal) {
				delta = append(delta, v)
			}
		}
		var deltaCodes []uint32
		for i := 0; len(delta) > 0 && i < int(deltaRows); i++ {
			c := uint32(rng.Intn(len(delta)))
			deltaCodes = append(deltaCodes, c)
			rows = append(rows, delta[c])
		}

		typed := Values{Type: typ}
		for _, v := range delta {
			typed.Append(v)
		}
		got, codes := Merge(typ, old, keep, typed, deltaCodes)
		want, wantCodes, err := Build(typ, rows)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.EqualFunc(entries(got), entries(want), value.Value.Equal) || !slices.Equal(codes, wantCodes) {
			t.Fatalf("Merge = %v %v, Build = %v %v", entries(got), codes, entries(want), wantCodes)
		}
		naive, naiveCodes := naiveDictionary(rows)
		if !slices.EqualFunc(entries(got), naive, value.Value.Equal) || !slices.Equal(codes, naiveCodes) {
			t.Fatalf("Merge = %v %v, sorted = %v %v", entries(got), codes, naive, naiveCodes)
		}
		if slots := cap(got.vals.Ints) + cap(got.vals.Floats) + cap(got.vals.Strs); slots != got.Size() {
			t.Fatalf("dictionary holds %d slots for %d values", slots, got.Size())
		}
	})
}

// BenchmarkScanKernel times ScanRangeIn over 300 k codes for each code
// width, predicate (one code, or a range of several) and share of rows
// that match, and reports ns per row. Each cell first checks the kernel's
// positions against the per-row loop. At width 1 a range of two codes is
// every code, so that width has equality cells only.
func BenchmarkScanKernel(b *testing.B) {
	const rows = 300_000
	rng := rand.New(rand.NewSource(1))
	for _, width := range []uint{1, 4, 9, 12, 16, 17, 24} {
		space := uint32(1) << width
		for _, pred := range []string{"eq", "range"} {
			lo, hi := space/2, space/2+1
			if pred == "range" {
				if width == 1 {
					continue
				}
				lo, hi = space/4, space/4+max(2, space/4)
			}
			for _, sel := range []float64{0.001, 0.03, 0.3, 0.9} {
				codes := make([]uint32, rows) // a share sel in [lo, hi), the rest outside
				for i := range codes {
					if rng.Float64() < sel {
						codes[i] = lo + rng.Uint32()%(hi-lo)
					} else if codes[i] = rng.Uint32() % (space - (hi - lo)); codes[i] >= lo {
						codes[i] += hi - lo
					}
				}
				v := Pack(codes, space-1)
				b.Run(fmt.Sprintf("w=%d/%s/sel=%g%%", width, pred, sel*100), func(b *testing.B) {
					out := v.ScanRangeIn(lo, hi, 0, rows, make([]uint32, 0, rows))
					if want := v.scanRows(lo, hi-lo, 0, rows, nil); !slices.Equal(out, want) {
						b.Fatalf("%d positions, the per-row loop finds %d", len(out), len(want))
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						out = v.ScanRangeIn(lo, hi, 0, rows, out[:0])
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
				})
			}
		}
	}
}
