package drift_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/drift"
)

// scores draws n sigmoid-like scores around center with the given spread,
// from a seeded generator — the "same seed + same sequence" half of the
// determinism contract.
func scores(rng *rand.Rand, n int, center, spread float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		p := center + spread*(2*rng.Float64()-1)
		if p < 0 {
			p = 0
		}
		if p > 1 {
			p = 1
		}
		out[i] = p
	}
	return out
}

// shifted builds a sequence whose distribution breaks at the midpoint:
// stable scores around 0.2, then a regime shift to 0.8.
func shifted(seed int64, n int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	half := n / 2
	s := scores(rng, half, 0.2, 0.15)
	return append(s, scores(rng, n-half, 0.8, 0.15)...)
}

func cfgSmall() drift.Config {
	return drift.Config{Baseline: 128, Window: 64, Bins: 16, Consecutive: 2}
}

func TestZeroConfigDisabled(t *testing.T) {
	var c drift.Config
	if c.Enabled() {
		t.Fatal("zero Config must be disabled")
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("zero Config must validate: %v", err)
	}
	if _, err := drift.New(c); err == nil {
		t.Fatal("New must reject a disabled config")
	}
}

func TestValidate(t *testing.T) {
	bad := []drift.Config{
		{Baseline: 8, Bins: 16},          // baseline smaller than bins
		{Baseline: 128, Window: -1},      // negative window
		{Baseline: 128, Bins: 1},         // degenerate histogram
		{Baseline: 128, Consecutive: -2}, // negative streak
		{Baseline: 128, PSI: -1, KS: -1}, // no criterion left
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d should fail validation: %+v", i, c)
		}
	}
	if err := (drift.Config{Baseline: 256}).Validate(); err != nil {
		t.Fatalf("defaults should validate: %v", err)
	}
}

// TestAnySettingEnables: setting any field — not only Baseline or Window —
// asks for detection, so a threshold alone attaches a detector and a broken
// threshold alone is refused instead of passing as "disabled".
func TestAnySettingEnables(t *testing.T) {
	for _, c := range []drift.Config{{PSI: 0.1}, {KS: 0.1}, {Bins: 8}, {Consecutive: 3}} {
		if !c.Enabled() {
			t.Errorf("%+v: not enabled", c)
		}
		if _, err := drift.New(c); err != nil {
			t.Errorf("%+v: %v", c, err)
		}
	}
	for _, c := range []drift.Config{{KS: math.NaN()}, {PSI: -1, KS: -1}} {
		if err := c.Validate(); err == nil {
			t.Errorf("%+v: validated", c)
		}
	}
}

// TestShiftTriggers: a regime break in the score distribution latches the
// trigger; a stationary stream never does.
func TestShiftTriggers(t *testing.T) {
	d, err := drift.New(cfgSmall())
	if err != nil {
		t.Fatal(err)
	}
	var last drift.Result
	for _, p := range shifted(1, 2048) {
		last = d.Observe(p)
	}
	if !last.Triggered {
		t.Fatalf("regime break did not trigger: %+v", last)
	}
	if last.TriggerSample <= 1024 {
		t.Fatalf("trigger at sample %d, before the shift at 1024", last.TriggerSample)
	}

	// Stationary control: same generator, no shift.
	d2, err := drift.New(cfgSmall())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for _, p := range scores(rng, 4096, 0.3, 0.2) {
		last = d2.Observe(p)
	}
	if last.Triggered {
		t.Fatalf("stationary stream triggered: %+v", last)
	}
	if last.Windows == 0 {
		t.Fatal("stationary stream evaluated no windows")
	}
}

// TestDeterminism: two detectors fed the identical sequence report
// bit-identical statistics at every step, including the trigger sample.
func TestDeterminism(t *testing.T) {
	seq := shifted(7, 3000)
	a, _ := drift.New(cfgSmall())
	b, _ := drift.New(cfgSmall())
	for i, p := range seq {
		ra := a.Observe(p)
		rb := b.Observe(p)
		if ra != rb {
			t.Fatalf("step %d diverged: %+v vs %+v", i, ra, rb)
		}
	}
	if !a.State().Triggered || a.State().TriggerSample != b.State().TriggerSample {
		t.Fatalf("trigger sample diverged: %+v vs %+v", a.State(), b.State())
	}
}

// TestResetRebaselines: after Reset the detector forgets its baseline, so
// a stream that continues in the new regime is the new normal — no
// trigger.
func TestResetRebaselines(t *testing.T) {
	d, _ := drift.New(cfgSmall())
	for _, p := range shifted(3, 2048) {
		d.Observe(p)
	}
	if !d.State().Triggered {
		t.Fatal("setup: expected a trigger before reset")
	}
	d.Reset()
	if st := d.State(); st.Triggered || st.Sample != 0 || st.Windows != 0 {
		t.Fatalf("reset left state behind: %+v", st)
	}
	rng := rand.New(rand.NewSource(4))
	var last drift.Result
	for _, p := range scores(rng, 2048, 0.8, 0.15) {
		last = d.Observe(p)
	}
	if last.Triggered {
		t.Fatalf("post-reset stationary stream triggered: %+v", last)
	}
}

// TestOutOfRangeScores: NaN and out-of-range scores clamp into the edge
// bins instead of corrupting the histogram.
func TestOutOfRangeScores(t *testing.T) {
	d, _ := drift.New(drift.Config{Baseline: 16, Window: 8, Bins: 4, Consecutive: 1})
	hostile := []float64{-1, 2, 0, 1, math.NaN()}
	for i := 0; i < 64; i++ {
		d.Observe(hostile[i%len(hostile)])
	}
	st := d.State()
	if st.Sample != 64 {
		t.Fatalf("lost samples: %+v", st)
	}
}
