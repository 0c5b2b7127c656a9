package benchkit

import (
	"math"
	"testing"
	"time"
)

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := Quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("Quantile sorted its input in place")
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("Quantile of nothing must be NaN, not a number that reads as fast")
	}
}

// One stalled slice decides a whole-run p99 but not the median of slice p99s.
func TestSliceQuantileIgnoresOneStall(t *testing.T) {
	const slices, perSlice = 10, 200
	window := 10 * time.Second
	var samples []Sample
	var all []float64
	for s := 0; s < slices; s++ {
		for i := 0; i < perSlice; i++ {
			v := 1 + float64(i)/perSlice // 1.000 … 1.995
			if s == 3 && i >= perSlice-30 {
				v = 500 // a single stall, wholly inside slice 3
			}
			at := time.Duration(s)*time.Second + time.Duration(i)*time.Second/perSlice
			samples = append(samples, Sample{At: at, V: v})
			all = append(all, v)
		}
	}
	if whole := Quantile(all, 0.99); whole < 100 {
		t.Fatalf("test premise: the whole-run p99 should sit in the stall, got %v", whole)
	}
	got, counts := SliceQuantile(samples, window, slices, 0.99)
	if got < 1.9 || got > 2.0 {
		t.Errorf("slice-median p99 = %v, want the quiet slices' ~1.99", got)
	}
	for i, c := range counts {
		if c != perSlice {
			t.Errorf("slice %d holds %d samples, want %d", i, c, perSlice)
		}
	}
}

func TestSliceQuantileWindowEdges(t *testing.T) {
	samples := []Sample{
		{At: -time.Millisecond, V: 99}, // before the window
		{At: 0, V: 1},
		{At: 999 * time.Millisecond, V: 3},
		{At: time.Second, V: 99}, // the window is half-open
	}
	got, counts := SliceQuantile(samples, time.Second, 2, 0.5)
	if counts[0] != 1 || counts[1] != 1 {
		t.Errorf("counts = %v, want [1 1]", counts)
	}
	if got != 2 {
		t.Errorf("median of slice medians = %v, want 2", got)
	}
	// Empty slices are skipped, not read as zero.
	got, _ = SliceQuantile([]Sample{{At: 0, V: 7}}, time.Second, 4, 0.5)
	if got != 7 {
		t.Errorf("one populated slice of four: got %v, want 7", got)
	}
}

// Quartiles must match Python's statistics.quantiles(v, n=4), which is what
// the benchmark contract computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := Quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([3.1, 0.4, 2.2, 9.5, 1.0], n=4) == [0.7, 2.2, 6.3]
	q1, q2, q3 = Quartiles([]float64{3.1, 0.4, 2.2, 9.5, 1.0})
	if math.Abs(q1-0.7) > 1e-12 || q2 != 2.2 || math.Abs(q3-6.3) > 1e-12 {
		t.Errorf("quartiles = %v %v %v, want 0.7 2.2 6.3", q1, q2, q3)
	}
}
