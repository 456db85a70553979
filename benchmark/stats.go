package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie beyond a reported
// percentile: below that the percentile is an order statistic of a
// handful of requests and does not repeat.
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of sorted by the
// nearest-rank rule, so the value is always one that was measured.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank]
}

// supports reports whether n samples leave at least minBeyond of them
// beyond the q-quantile.
func supports(n int, q float64) bool {
	return float64(n)*(1-q) >= minBeyond
}

// median returns the middle value of vs (mean of the two middle values
// for an even count); vs is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) (exclusive method) gives them —
// the driver judges run-to-run spread with that function.
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 { // i-th of 4 cut points
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the inter-quartile distance as a share of the median.
func spread(vs []float64) float64 {
	m := median(vs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(vs)
	return (q3 - q1) / math.Abs(m)
}

// windowed computes a percentile per window and returns the median of
// the per-window values with the per-window sample counts. Every
// window must support the percentile unless lenient is set (smoke
// runs check plumbing, not numbers).
func windowed(windows [][]float64, q float64, lenient bool) (float64, []int, error) {
	vals := make([]float64, 0, len(windows))
	counts := make([]int, len(windows))
	for i, w := range windows {
		counts[i] = len(w)
		if !supports(len(w), q) && !lenient {
			return 0, counts, fmt.Errorf("window %d has %d samples: p%g needs %d beyond it",
				i, len(w), q*100, minBeyond)
		}
		if len(w) == 0 {
			continue
		}
		s := append([]float64(nil), w...)
		sort.Float64s(s)
		vals = append(vals, percentile(s, q))
	}
	return median(vals), counts, nil
}
