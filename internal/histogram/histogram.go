// Package histogram implements equi-depth histograms for selectivity
// estimation. The paper estimates attribute selectivity as 1/n for
// equi-predicates "using distinct counts and histograms when available"
// (Section III-A, following Selinger-style estimation [27]); histograms
// refine the estimate for range predicates, which otherwise default to
// the equi-predicate value. The executor uses these estimates to order
// predicates, so better estimates directly improve the
// location-then-selectivity execution order.
package histogram

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"tierdb/internal/value"
)

// Histogram is an immutable equi-depth histogram over one column.
type Histogram struct {
	typ value.Type
	// bounds[i] is the inclusive upper bound of bucket i; buckets hold
	// (bounds[i-1], bounds[i]]. The first bucket starts at min.
	bounds []value.Value
	min    value.Value
	// counts[i] is the number of rows in bucket i.
	counts []int
	total  int
	// distinct is the column's distinct count (for equi-predicates).
	distinct int
}

// Build constructs an equi-depth histogram with up to `buckets` buckets
// over vals. All values must share one orderable type. It sorts the
// values' typed payloads — an []int64, []float64 or []string, not
// value.Value — counts the runs of equal values and hands them to
// FromCounts.
func Build(typ value.Type, vals []value.Value, buckets int) (*Histogram, error) {
	if len(vals) == 0 {
		return nil, fmt.Errorf("histogram: no values")
	}
	for i, v := range vals {
		if v.Type() != typ {
			return nil, fmt.Errorf("histogram: value %d has type %s, want %s", i, v.Type(), typ)
		}
	}
	switch typ {
	case value.Int64:
		return build(typ, vals, value.Value.Int, value.NewInt, buckets)
	case value.Float64:
		return build(typ, vals, value.Value.Float, value.NewFloat, buckets)
	default:
		return build(typ, vals, value.Value.Str, value.NewString, buckets)
	}
}

func build[T cmp.Ordered](typ value.Type, vals []value.Value, key func(value.Value) T, mk func(T) value.Value, buckets int) (*Histogram, error) {
	keys := make([]T, len(vals))
	for i, v := range vals {
		keys[i] = key(v)
	}
	slices.Sort(keys)
	var counts []int
	for i, k := range keys {
		if i == 0 || cmp.Compare(k, keys[i-1]) != 0 { // NaN is one run, as in a dictionary
			keys[len(counts)] = k // the distinct keys, compacted in place
			counts = append(counts, 0)
		}
		counts[len(counts)-1]++
	}
	return FromSorted(typ, func(i int) value.Value { return mk(keys[i]) }, counts, buckets)
}

// FromCounts builds the histogram Build builds over a column whose
// distinct values, ascending, are sortedDistinct, value i occurring
// counts[i] > 0 times — the form a dictionary-encoded column has its
// statistics in once its codes are counted. Buckets hold about
// total/buckets rows each and end on a run boundary, so equal values
// never straddle one (keeps equi-predicate math consistent). String
// bounds are copied: the histogram keeps alive none of sortedDistinct.
func FromCounts(typ value.Type, sortedDistinct []value.Value, counts []int, buckets int) (*Histogram, error) {
	return FromSorted(typ, func(i int) value.Value { return sortedDistinct[i] }, counts, buckets)
}

// FromSorted is FromCounts reading the i-th distinct value through
// distinct — a dictionary's At — which it calls only for the bounds.
func FromSorted(typ value.Type, distinct func(i int) value.Value, counts []int, buckets int) (*Histogram, error) {
	if buckets < 1 {
		return nil, fmt.Errorf("histogram: bucket count %d must be positive", buckets)
	}
	if len(counts) == 0 {
		return nil, fmt.Errorf("histogram: no values")
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	own := func(i int) value.Value {
		v := distinct(i)
		if typ == value.String {
			v = value.NewString(strings.Clone(v.Str()))
		}
		return v
	}
	n := min(buckets, len(counts))
	h := &Histogram{typ: typ, min: own(0), total: total, distinct: len(counts),
		bounds: make([]value.Value, 0, n), counts: make([]int, 0, n)}
	per := (total + buckets - 1) / buckets
	start, end := 0, 0
	for i, c := range counts {
		end += c
		// The bucket opened at row start closes with the run holding its
		// per-th row (or the last row).
		if end >= min(start+per, total) {
			h.bounds = append(h.bounds, own(i))
			h.counts = append(h.counts, end-start)
			start = end
		}
	}
	return h, nil
}

// Parts returns what the histogram is made of: the column's minimum,
// each bucket's inclusive upper bound and row count, and the distinct
// count — what a checkpoint stores. The slices are the histogram's own
// and must not be modified.
func (h *Histogram) Parts() (min value.Value, bounds []value.Value, counts []int, distinct int) {
	return h.min, h.bounds, h.counts, h.distinct
}

// FromParts rebuilds the histogram Parts described — how recovery adopts
// the one a checkpoint stored. It keeps the slices. There must be a
// bound per count and at least one, every value of type typ, every
// count positive and the distinct count at least the bucket count.
func FromParts(typ value.Type, min value.Value, bounds []value.Value, counts []int, distinct int) (*Histogram, error) {
	if len(counts) == 0 || len(bounds) != len(counts) || distinct < len(counts) || min.Type() != typ {
		return nil, fmt.Errorf("histogram: %d bounds, %d counts, %d distinct values", len(bounds), len(counts), distinct)
	}
	h := &Histogram{typ: typ, min: min, bounds: bounds, counts: counts, distinct: distinct}
	for i, c := range counts {
		if c <= 0 || bounds[i].Type() != typ {
			return nil, fmt.Errorf("histogram: bucket %d holds %d %s values", i, c, bounds[i].Type())
		}
		h.total += c
	}
	return h, nil
}

// Type returns the column type.
func (h *Histogram) Type() value.Type { return h.typ }

// Buckets returns the number of buckets.
func (h *Histogram) Buckets() int { return len(h.bounds) }

// Total returns the number of rows summarized.
func (h *Histogram) Total() int { return h.total }

// DistinctCount returns the exact distinct count observed at build
// time.
func (h *Histogram) DistinctCount() int { return h.distinct }

// EqualSelectivity estimates the fraction of rows equal to v: the
// containing bucket's share divided by an assumed uniform spread over
// the bucket's distinct values (approximated by distinct/buckets).
func (h *Histogram) EqualSelectivity(v value.Value) float64 {
	if v.Type() != h.typ {
		return 1.0 / float64(h.distinct)
	}
	b := h.bucketOf(v)
	if b < 0 {
		return 0
	}
	perBucketDistinct := float64(h.distinct) / float64(len(h.bounds))
	if perBucketDistinct < 1 {
		perBucketDistinct = 1
	}
	return float64(h.counts[b]) / float64(h.total) / perBucketDistinct
}

// RangeSelectivity estimates the fraction of rows in [lo, hi]: full
// buckets count entirely, boundary buckets contribute linearly
// interpolated shares (continuous-domain assumption).
func (h *Histogram) RangeSelectivity(lo, hi value.Value) float64 {
	if lo.Type() != h.typ || hi.Type() != h.typ || lo.Compare(hi) > 0 {
		return 0
	}
	var rows float64
	prevUpper := h.min
	for b, upper := range h.bounds {
		bucketLo := prevUpper
		if b > 0 {
			bucketLo = h.bounds[b-1]
		} else {
			bucketLo = h.min
		}
		prevUpper = upper
		// Bucket interval: [bucketLo, upper] for b=0, else (bucketLo, upper].
		if hi.Compare(bucketLo) < 0 {
			break
		}
		if lo.Compare(upper) > 0 {
			continue
		}
		frac := overlapFraction(h.typ, bucketLo, upper, lo, hi)
		rows += frac * float64(h.counts[b])
	}
	sel := rows / float64(h.total)
	if sel > 1 {
		sel = 1
	}
	return sel
}

// bucketOf returns the bucket containing v, or -1 if v is outside the
// histogram's range.
func (h *Histogram) bucketOf(v value.Value) int {
	if v.Compare(h.min) < 0 {
		return -1
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return h.bounds[i].Compare(v) >= 0 })
	if i == len(h.bounds) {
		return -1
	}
	return i
}

// overlapFraction estimates which share of the bucket [bLo, bHi] the
// query range [qLo, qHi] covers, interpolating linearly for numeric
// types and falling back to full overlap for strings.
func overlapFraction(t value.Type, bLo, bHi, qLo, qHi value.Value) float64 {
	lo, hi := bLo, bHi
	if qLo.Compare(lo) > 0 {
		lo = qLo
	}
	if qHi.Compare(hi) < 0 {
		hi = qHi
	}
	if lo.Compare(hi) > 0 {
		return 0
	}
	switch t {
	case value.Int64:
		span := float64(bHi.Int() - bLo.Int() + 1)
		cover := float64(hi.Int() - lo.Int() + 1)
		if span <= 0 {
			return 1
		}
		return cover / span
	case value.Float64:
		span := bHi.Float() - bLo.Float()
		if !(span > 0) { // also a NaN span: a bucket opening at NaN or ±Inf
			return 1
		}
		cover := hi.Float() - lo.Float()
		f := cover / span
		if !(f > 0) {
			// Point overlap in a continuous domain still matches the
			// boundary value; approximate with a thin slice.
			return 0.5 / span
		}
		return f
	default:
		return 1 // strings: assume the whole bucket qualifies
	}
}
