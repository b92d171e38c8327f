package main

import (
	"math"
	"slices"
)

// failedLat is the latency recorded for an op that failed: it sorts above
// every real latency, so a failure counts as infinitely slow in every
// percentile instead of vanishing from the sample.
const failedLat = math.MaxInt64

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of a
// sorted sample: the smallest value with at least p% of the sample at or
// below it. An empty sample reads 0.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// median returns the middle of the values (mean of the middle two when the
// count is even).
func median(values []float64) float64 {
	s := slices.Sorted(slices.Values(values))
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// repSpread is (max - min) / median of the per-rep values: the diagnostic
// that says how disturbed a run was.
func repSpread(values []float64) float64 {
	m := median(values)
	if m == 0 {
		return 0
	}
	return (slices.Max(values) - slices.Min(values)) / m
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), so -aa
// reports the same inter-quartile range the acceptance check computes.
func quartiles(values []float64) (q1, q3 float64) {
	s := slices.Sorted(slices.Values(values))
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 { // i-th of 4 cut points
		pos := float64(i) * float64(n+1) / 4
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
	return at(1), at(3)
}
