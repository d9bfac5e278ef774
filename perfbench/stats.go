package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of an ascending slice,
// interpolating linearly between the two closest ranks. An empty slice
// yields NaN so a missing sample set can never pass as a measurement.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// sortedFloats returns an ascending copy of xs.
func sortedFloats(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// durs converts nanosecond durations to an ascending slice in unit.
func durs(ns []int64, unit time.Duration) []float64 {
	out := make([]float64, len(ns))
	for i, d := range ns {
		out[i] = float64(d) / float64(unit)
	}
	sort.Float64s(out)
	return out
}

// interquartileMean is the mean of the middle half of xs: the values
// left when the lowest and highest quarter are dropped.
func interquartileMean(xs []float64) float64 {
	s := sortedFloats(xs)
	q := len(s) / 4
	mid := s[q : len(s)-q]
	if len(mid) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range mid {
		sum += x
	}
	return sum / float64(len(mid))
}

// median is quantile(·, 0.5) on an unsorted slice.
func median(xs []float64) float64 { return quantile(sortedFloats(xs), 0.5) }
