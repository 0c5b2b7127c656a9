// Package stats implements the statistical machinery the paper's data
// profiling and evaluation sections rely on: descriptive statistics,
// Pearson correlation (eq. 7), the Augmented Dickey–Fuller stationarity
// test (§V-A), and the classification / regression metrics of §II-B.
package stats

import (
	"fmt"
	"math"
)

// Mean returns the arithmetic mean of x (0 for empty input).
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var s float64
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// Variance returns the population variance of x.
func Variance(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	m := Mean(x)
	var s float64
	for _, v := range x {
		d := v - m
		s += d * d
	}
	return s / float64(len(x))
}

// StdDev returns the population standard deviation of x.
func StdDev(x []float64) float64 { return math.Sqrt(Variance(x)) }

// Covariance returns the population covariance of x and y.
func Covariance(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("stats: Covariance length mismatch %d vs %d", len(x), len(y)))
	}
	if len(x) == 0 {
		return 0
	}
	mx, my := Mean(x), Mean(y)
	var s float64
	for i, v := range x {
		s += (v - mx) * (y[i] - my)
	}
	return s / float64(len(x))
}

// Pearson returns Pearson's ρ between x and y (paper eq. 7). Returns 0 when
// either series is constant, the conventional degenerate-case value.
func Pearson(x, y []float64) float64 {
	sx, sy := StdDev(x), StdDev(y)
	if sx == 0 || sy == 0 {
		return 0
	}
	return Covariance(x, y) / (sx * sy)
}

// Quantile returns the q-th quantile (0..1) of x using linear interpolation.
// x does not need to be sorted; a sorted copy is made internally.
func Quantile(x []float64, q float64) float64 {
	if len(x) == 0 {
		return math.NaN()
	}
	s := make([]float64, len(x))
	copy(s, x)
	insertionSortOrQuick(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// insertionSortOrQuick sorts in place. Small inputs use insertion sort;
// larger ones a simple in-place quicksort (median-of-three pivot). Written
// out rather than calling sort.Float64s to keep this file's hot path free of
// interface conversions in tight profiling loops.
func insertionSortOrQuick(s []float64) {
	if len(s) < 24 {
		for i := 1; i < len(s); i++ {
			v := s[i]
			j := i - 1
			for j >= 0 && s[j] > v {
				s[j+1] = s[j]
				j--
			}
			s[j+1] = v
		}
		return
	}
	lo, mid, hi := 0, len(s)/2, len(s)-1
	// Median-of-three pivot to s[hi].
	if s[mid] < s[lo] {
		s[mid], s[lo] = s[lo], s[mid]
	}
	if s[hi] < s[lo] {
		s[hi], s[lo] = s[lo], s[hi]
	}
	if s[mid] < s[hi] {
		s[mid], s[hi] = s[hi], s[mid]
	}
	pivot := s[hi]
	i := 0
	for j := 0; j < hi; j++ {
		if s[j] < pivot {
			s[i], s[j] = s[j], s[i]
			i++
		}
	}
	s[i], s[hi] = s[hi], s[i]
	insertionSortOrQuick(s[:i])
	insertionSortOrQuick(s[i+1:])
}
