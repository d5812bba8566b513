package main

import (
	"math"
	"sort"
	"time"
)

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile is the nearest-rank q-quantile of xs (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// median is the middle value of xs, the mean of the two middle values for an
// even count.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// imbalance is max/mean of per-worker loads, the straggler ratio (1 = even).
func imbalance(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var total, hi int64
	for _, x := range xs {
		total += x
		if x > hi {
			hi = x
		}
	}
	if total == 0 {
		return 0
	}
	return float64(hi) * float64(len(xs)) / float64(total)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
