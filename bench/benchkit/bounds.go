package benchkit

import "math"

// StartingBounds are the regression bounds the end-to-end metrics start from
// (as shares of the parent's median) before the noise check widens any.
var StartingBounds = map[string]float64{
	"setup_s":          0.25,
	"throughput_per_s": 0.10,
	"latency_p50_ms":   0.10,
	"latency_tail_ms":  0.20,
	"cpu_us_per_frame": 0.10,
	"peak_rss_mb":      0.10,
}

// MaxBound is the widest bound the benchmark contract accepts.
const MaxBound = 0.25

// RuleBound is the bound a metric gets from measurement: the larger of its
// starting bound and twice the largest difference seen between two sets of
// runs of the same code. A result above MaxBound means the metric needs a
// better instrument, not a wider bound.
func RuleBound(metric string, setToSetDiff float64) float64 {
	return math.Max(StartingBounds[metric], 2*math.Abs(setToSetDiff))
}
