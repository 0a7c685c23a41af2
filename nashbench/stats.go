package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 <= q <= 1) of an ascending slice by
// linear interpolation between the two closest ranks (Hyndman-Fan type 7,
// the default of numpy and R). +Inf entries stand for failed requests: a
// quantile that reaches into them is +Inf. An empty slice yields NaN.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	h := q * float64(n-1)
	if h <= 0 {
		return sorted[0]
	}
	if h >= float64(n-1) {
		return sorted[n-1]
	}
	lo := int(h)
	frac := h - float64(lo)
	a, b := sorted[lo], sorted[lo+1]
	if frac == 0 {
		return a
	}
	if math.IsInf(b, 1) {
		return b
	}
	return a + frac*(b-a)
}

// sortedCopy returns xs in ascending order without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the 0.5-quantile of xs in any order.
func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// mean is the arithmetic mean of xs (NaN when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// tailSupport is the number of samples strictly beyond quantile q: the
// choosing-metrics rule reports a tail percentile only when at least ten
// samples lie beyond it.
func tailSupport(n int, q float64) int { return int(float64(n) * (1 - q)) }

// windowedQuantile splits xs, given in time order, into consecutive windows,
// as many as leave at least ten samples beyond quantile q in each (at most
// 20), and returns the median over the windows of each window's
// q-quantile. A burst of noise from outside the system then moves one
// window, not the reported figure.
func windowedQuantile(xs []float64, q float64) float64 {
	windows := tailSupport(len(xs), q) / 10
	if windows > 20 {
		windows = 20
	}
	if windows < 1 {
		windows = 1
	}
	per := make([]float64, windows)
	for k := range per {
		per[k] = quantile(sortedCopy(xs[k*len(xs)/windows:(k+1)*len(xs)/windows]), q)
	}
	return median(per)
}
