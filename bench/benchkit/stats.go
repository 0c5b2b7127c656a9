// Package benchkit holds the measurement helpers of the repo benchmark
// (bench/occubench): percentile estimators, the open-loop pacer, the span
// recorder, a Prometheus-text parser and process resource readers. Nothing
// here knows about occupancy detection; the workloads live in occubench.
package benchkit

import (
	"math"
	"sort"
	"time"
)

// Quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between order statistics. It copies xs; an empty input
// yields NaN so a missing measurement can never read as a fast one.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// Median is Quantile(xs, 0.5).
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Sample is one timed observation: At is its position inside the measured
// window, V the observed value.
type Sample struct {
	At time.Duration
	V  float64
}

// SliceQuantile cuts [0, window) into equal time slices, takes the
// q-quantile of each slice's samples and returns the median of those slice
// quantiles together with the per-slice sample counts. A whole-run tail
// percentile is decided by a single stall; the median of slice tails is
// not, which is why every tail the benchmark reports goes through here.
// Samples outside the window are ignored and empty slices are skipped.
func SliceQuantile(samples []Sample, window time.Duration, slices int, q float64) (float64, []int) {
	if slices < 1 || window <= 0 {
		return math.NaN(), nil
	}
	buckets := make([][]float64, slices)
	for _, s := range samples {
		if s.At < 0 || s.At >= window {
			continue
		}
		i := int(int64(s.At) * int64(slices) / int64(window))
		buckets[i] = append(buckets[i], s.V)
	}
	counts := make([]int, slices)
	var qs []float64
	for i, b := range buckets {
		counts[i] = len(b)
		if len(b) > 0 {
			qs = append(qs, Quantile(b, q))
		}
	}
	return Median(qs), counts
}

// Quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (the "exclusive" method) — the
// estimator the benchmark contract measures run-to-run spread with, so the
// noise table and the driver agree. It needs at least two values.
func Quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}
