package histogram

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"tierdb/internal/value"
)

func intVals(vs ...int64) []value.Value {
	out := make([]value.Value, len(vs))
	for i, v := range vs {
		out[i] = value.NewInt(v)
	}
	return out
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(value.Int64, nil, 4); err == nil {
		t.Error("empty values accepted")
	}
	if _, err := Build(value.Int64, intVals(1), 0); err == nil {
		t.Error("zero buckets accepted")
	}
	if _, err := Build(value.Int64, []value.Value{value.NewString("x")}, 4); err == nil {
		t.Error("type mismatch accepted")
	}
}

func TestEquiDepthBucketsBalanced(t *testing.T) {
	vals := make([]value.Value, 1000)
	for i := range vals {
		vals[i] = value.NewInt(int64(i))
	}
	h, err := Build(value.Int64, vals, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.bounds) != 10 {
		t.Fatalf("buckets = %d", len(h.bounds))
	}
	if h.Total() != 1000 || h.DistinctCount() != 1000 {
		t.Errorf("total/distinct = %d/%d", h.Total(), h.DistinctCount())
	}
}

func TestRangeSelectivityUniform(t *testing.T) {
	vals := make([]value.Value, 10000)
	rng := rand.New(rand.NewSource(1))
	for i := range vals {
		vals[i] = value.NewInt(int64(rng.Intn(1000)))
	}
	h, err := Build(value.Int64, vals, 32)
	if err != nil {
		t.Fatal(err)
	}
	// [0, 99] covers ~10% of a uniform domain.
	got := h.RangeSelectivity(value.NewInt(0), value.NewInt(99))
	if math.Abs(got-0.1) > 0.03 {
		t.Errorf("RangeSelectivity([0,99]) = %g, want ~0.1", got)
	}
	// Full domain covers everything.
	got = h.RangeSelectivity(value.NewInt(0), value.NewInt(999))
	if math.Abs(got-1) > 0.01 {
		t.Errorf("RangeSelectivity(full) = %g, want 1", got)
	}
	// Empty ranges.
	if h.RangeSelectivity(value.NewInt(5000), value.NewInt(6000)) != 0 {
		t.Error("out-of-domain range should be 0")
	}
	if h.RangeSelectivity(value.NewInt(10), value.NewInt(5)) != 0 {
		t.Error("inverted range should be 0")
	}
}

func TestRangeSelectivityHandlesSkew(t *testing.T) {
	// 90% of rows are the single value 7; equi-depth buckets adapt
	// while a uniform assumption would not.
	var vals []value.Value
	for i := 0; i < 9000; i++ {
		vals = append(vals, value.NewInt(7))
	}
	for i := 0; i < 1000; i++ {
		vals = append(vals, value.NewInt(int64(100+i)))
	}
	h, err := Build(value.Int64, vals, 16)
	if err != nil {
		t.Fatal(err)
	}
	got := h.RangeSelectivity(value.NewInt(0), value.NewInt(50))
	if got < 0.85 {
		t.Errorf("skewed range selectivity = %g, want ~0.9", got)
	}
	tail := h.RangeSelectivity(value.NewInt(100), value.NewInt(1099))
	if math.Abs(tail-0.1) > 0.05 {
		t.Errorf("tail selectivity = %g, want ~0.1", tail)
	}
}

func TestFloatHistogram(t *testing.T) {
	vals := make([]value.Value, 2000)
	rng := rand.New(rand.NewSource(2))
	for i := range vals {
		vals[i] = value.NewFloat(rng.Float64() * 100)
	}
	h, err := Build(value.Float64, vals, 16)
	if err != nil {
		t.Fatal(err)
	}
	got := h.RangeSelectivity(value.NewFloat(25), value.NewFloat(75))
	if math.Abs(got-0.5) > 0.05 {
		t.Errorf("float range selectivity = %g, want ~0.5", got)
	}
}

func TestStringHistogram(t *testing.T) {
	vals := []value.Value{
		value.NewString("apple"), value.NewString("banana"), value.NewString("cherry"),
		value.NewString("date"), value.NewString("elderberry"), value.NewString("fig"),
	}
	h, err := Build(value.String, vals, 3)
	if err != nil {
		t.Fatal(err)
	}
	got := h.RangeSelectivity(value.NewString("a"), value.NewString("c"))
	if got <= 0 || got > 1 {
		t.Errorf("string range selectivity = %g", got)
	}
}

func TestDuplicatesDoNotStraddleBuckets(t *testing.T) {
	// 500 copies of each of 4 values with 8 requested buckets: equal
	// values must stay in one bucket.
	var vals []value.Value
	for v := 0; v < 4; v++ {
		for i := 0; i < 500; i++ {
			vals = append(vals, value.NewInt(int64(v)))
		}
	}
	h, err := Build(value.Int64, vals, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.bounds) > 4 {
		t.Errorf("buckets = %d, want <= 4 distinct-respecting buckets", len(h.bounds))
	}
	// Each bucket ends on a run boundary: it holds whole runs of 500.
	_, _, counts, _ := h.Parts()
	for b, c := range counts {
		if c%500 != 0 {
			t.Errorf("bucket %d holds %d rows, not whole runs of 500", b, c)
		}
	}
}

// Property: range selectivity is monotone in range width and bounded
// by [0, 1].
func TestRangeSelectivityMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	vals := make([]value.Value, 5000)
	for i := range vals {
		vals[i] = value.NewInt(int64(rng.Intn(500)))
	}
	h, err := Build(value.Int64, vals, 20)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 200; trial++ {
		lo := int64(rng.Intn(500))
		width1 := int64(rng.Intn(100))
		width2 := width1 + int64(rng.Intn(100))
		s1 := h.RangeSelectivity(value.NewInt(lo), value.NewInt(lo+width1))
		s2 := h.RangeSelectivity(value.NewInt(lo), value.NewInt(lo+width2))
		if s1 < 0 || s1 > 1 || s2 < 0 || s2 > 1 {
			t.Fatalf("selectivity out of bounds: %g, %g", s1, s2)
		}
		if s2 < s1-1e-9 {
			t.Fatalf("wider range less selective: [%d,%d]=%g vs [%d,%d]=%g",
				lo, lo+width1, s1, lo, lo+width2, s2)
		}
	}
}

// TestFromCountsMatchesBuild gives FromSorted the distinct values and
// run lengths of random columns, counted here by a map, and requires
// exactly the histogram Build makes of the columns themselves.
func TestFromCountsMatchesBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		typ := value.Type(trial % 3)
		vals := make([]value.Value, 1+rng.Intn(2000))
		spread := 1 + rng.Intn(len(vals))
		for i := range vals {
			k := rng.Intn(spread)
			switch typ {
			case value.Int64:
				vals[i] = value.NewInt(int64(k))
			case value.Float64:
				vals[i] = value.NewFloat(float64(k) / 3)
			default:
				vals[i] = value.NewString(fmt.Sprintf("s%05d", k))
			}
		}
		counts := map[value.Value]int{}
		for _, v := range vals {
			counts[v]++
		}
		distinct := make([]value.Value, 0, len(counts))
		for v := range counts {
			distinct = append(distinct, v)
		}
		slices.SortFunc(distinct, value.Value.Compare)
		runs := make([]int, len(distinct))
		for i, v := range distinct {
			runs[i] = counts[v]
		}
		buckets := 1 + rng.Intn(80)
		want, err := Build(typ, vals, buckets)
		if err != nil {
			t.Fatal(err)
		}
		got, err := FromSorted(typ, func(i int) value.Value { return distinct[i] }, runs, buckets)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: FromSorted %+v, Build %+v", trial, got, want)
		}
		if naive := naiveHistogram(typ, vals, buckets); !reflect.DeepEqual(want, naive) {
			t.Fatalf("trial %d: Build %+v, bucketing the sorted values %+v", trial, want, naive)
		}
	}
}

// naiveHistogram is the histogram as it was first built: walk the sorted
// values, closing a bucket every ceil(n/buckets) rows, extended so equal
// values never straddle a boundary.
func naiveHistogram(typ value.Type, vals []value.Value, buckets int) *Histogram {
	sorted := slices.Clone(vals)
	slices.SortFunc(sorted, value.Value.Compare)
	h := &Histogram{typ: typ, min: sorted[0], total: len(sorted), distinct: len(slices.CompactFunc(slices.Clone(sorted), value.Value.Equal))}
	per := (len(sorted) + buckets - 1) / buckets
	for start := 0; start < len(sorted); {
		end := min(start+per, len(sorted))
		for end < len(sorted) && sorted[end].Equal(sorted[end-1]) {
			end++
		}
		h.bounds = append(h.bounds, sorted[end-1])
		h.counts = append(h.counts, end-start)
		start = end
	}
	return h
}
