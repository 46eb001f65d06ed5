package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// vals; 0 for an empty slice. vals is sorted in place.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	i := int(math.Ceil(p/100*float64(len(vals)))) - 1
	if i < 0 {
		i = 0
	}
	return vals[i]
}

func median(vals []float64) float64 { return percentile(vals, 50) }

// tailLadder is the set of percentiles a timing may be reported at, in
// tenths of a percent (so the rule below is exact integer arithmetic).
var tailLadder = []int{500, 750, 900, 950, 990, 999}

// tailPercentile applies the reporting rule for timings: the highest
// percentile of the ladder that still has at least ten samples beyond it.
// Below 20 samples only the median is meaningful.
func tailPercentile(n int) float64 {
	best := tailLadder[0]
	for _, p := range tailLadder {
		if n*(1000-p) >= 10*1000 {
			best = p
		}
	}
	return float64(best) / 10
}

// quartiles returns Q1, Q2, Q3 by the exclusive method of Python's
// statistics.quantiles(values, n=4), which is what the acceptance driver
// uses to judge run-to-run spread.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	at := func(i int) float64 {
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
	return at(1), at(2), at(3)
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var s float64
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
