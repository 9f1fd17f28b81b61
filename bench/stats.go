package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile for it to
// be reported: fewer, and the figure is one or two outliers' say.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of sorted
// and whether the sample supports it: the median needs one sample, a
// tail percentile needs minBeyond samples above its rank.
func percentile(sorted []int64, q float64) (int64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if q > 0.5 && n-rank < minBeyond {
		return sorted[rank-1], false
	}
	return sorted[rank-1], true
}

// median of a few floats (a lane's repeats); the mean of the middle two
// when the count is even, 0 of none.
func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(v, n=4) does (exclusive method), so
// that -compare's spread is the one the acceptance procedure computes.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}
