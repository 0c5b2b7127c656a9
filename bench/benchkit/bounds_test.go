package benchkit

import "testing"

func TestRuleBound(t *testing.T) {
	for _, c := range []struct {
		metric string
		diff   float64
		want   float64
	}{
		{"throughput_per_s", 0.02, 0.10},   // the starting value holds
		{"throughput_per_s", -0.07, 0.14},  // twice the difference, either sign
		{"latency_tail_ms", 0.09, 0.20},    // 18 % is still below the start
		{"cpu_us_per_frame", 0.207, 0.414}, // above MaxBound: needs a better instrument
	} {
		if got := RuleBound(c.metric, c.diff); got < c.want-1e-12 || got > c.want+1e-12 {
			t.Errorf("RuleBound(%s, %v) = %v, want %v", c.metric, c.diff, got, c.want)
		}
	}
}
