package main

import "sort"

// median returns the middle of sorted values (the mean of the two
// middle ones for an even count).
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// tail returns the highest percentile of sorted values that has at
// least ten samples beyond it, and that percentile. With fewer than
// eleven samples no percentile qualifies, and the maximum (p100) is
// reported instead.
func tail(sorted []float64) (value, pct float64) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	if n < 11 {
		return sorted[n-1], 100
	}
	return sorted[n-11], 100 * float64(n-10) / float64(n)
}

// medianOf returns the median of unsorted values.
func medianOf(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return median(s)
}
