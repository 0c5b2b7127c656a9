package occupancy

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// TestConfigPrecisionValidation: every public config that grew a Precision
// field pre-flights it, upholding the repository's config contract
// (config_test.go) for external input such as flag values.
func TestConfigPrecisionValidation(t *testing.T) {
	for _, p := range []string{"", PrecisionF64, PrecisionF32, PrecisionI8} {
		if err := (EngineConfig{Precision: p}).Validate(); err != nil {
			t.Fatalf("EngineConfig rejected precision %q: %v", p, err)
		}
		if err := (ServeConfig{Addr: ":0", Precision: p}).Validate(); err != nil {
			t.Fatalf("ServeConfig rejected precision %q: %v", p, err)
		}
	}
	for _, p := range []string{"f16", "F32", "quantized"} {
		if err := (EngineConfig{Precision: p}).Validate(); err == nil {
			t.Fatalf("EngineConfig accepted precision %q", p)
		}
		if err := (ServeConfig{Addr: ":0", Precision: p}).Validate(); err == nil {
			t.Fatalf("ServeConfig accepted precision %q", p)
		}
	}
	if _, err := NewEngine(&Detector{}, EngineConfig{Precision: "f16"}); err == nil {
		t.Fatal("NewEngine accepted precision f16")
	}
}

// TestEnginePrecision drives the public facade end to end at each precision:
// a reduced-precision engine must score deterministically (same sample, same
// probability, on every call) and stay within the documented bounds
// of the f64 Detector.Score reference.
func TestEnginePrecision(t *testing.T) {
	det, err := Train(TrainConfig{Epochs: 1, Seed: 7, SyntheticHours: 4})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	samples := make([]Sample, 32)
	for i := range samples {
		csi := make([]float64, NumSubcarriers)
		for k := range csi {
			csi[k] = 20 + 3*rng.NormFloat64()
		}
		samples[i] = Sample{
			Time: time.Date(2022, 1, 5, i%24, 7, 0, 0, time.UTC),
			CSI:  csi, Temp: 21 + rng.Float64(), Humidity: 40 + 5*rng.Float64(), HasEnv: true,
		}
	}
	want := make([]float64, len(samples))
	for i, s := range samples {
		r, err := det.Score(s)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r.P
	}
	for _, tc := range []struct {
		precision string
		bound     float64
	}{
		{PrecisionF64, 0}, // engine must stay bit-identical to Score
		{PrecisionF32, 1e-3},
		{PrecisionI8, 0.15},
	} {
		eng, err := NewEngine(det, EngineConfig{Precision: tc.precision})
		if err != nil {
			t.Fatal(err)
		}
		first := make([]float64, len(samples))
		for i, s := range samples {
			r, err := eng.Score(s)
			if err != nil {
				t.Fatal(err)
			}
			first[i] = r.P
			if d := math.Abs(r.P - want[i]); d > tc.bound {
				t.Fatalf("%s: sample %d drifted %g from the f64 reference (bound %g)",
					tc.precision, i, d, tc.bound)
			}
			if r.Occupied != (want[i] >= 0.5) {
				t.Fatalf("%s: sample %d decision flipped", tc.precision, i)
			}
		}
		// Determinism: a second pass reproduces every probability exactly.
		for i, s := range samples {
			r, err := eng.Score(s)
			if err != nil {
				t.Fatal(err)
			}
			if r.P != first[i] {
				t.Fatalf("%s: sample %d not deterministic: %v then %v", tc.precision, i, first[i], r.P)
			}
		}
	}
}
