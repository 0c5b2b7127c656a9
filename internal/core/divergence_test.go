package core

import (
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/infer"
	"repro/internal/nn"
)

// TestDivergenceGoldenBounds is the acceptance sweep: on the standard
// simulated dataset, a trained detector's f32 and int8 paths must sit inside
// their default bounds — in particular ZERO decision flips. These are the
// golden numbers DESIGN.md §12 quotes; if this test starts failing, the
// reduced-precision pipeline has drifted, not the bounds.
func TestDivergenceGoldenBounds(t *testing.T) {
	det, recs := serveFixture(t)
	for _, p := range []string{"f32", "int8"} {
		res, err := RunDivergence(det, recs, DivergenceConfig{Precision: p})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("divergence: %s", res)
		if res.Samples != len(recs) {
			t.Fatalf("%s: swept %d samples, want %d", p, res.Samples, len(recs))
		}
		if res.Flips != 0 || res.FlipRate != 0 {
			t.Fatalf("%s: %d decision flips on the standard dataset, want 0", p, res.Flips)
		}
		if !res.Pass {
			t.Fatalf("%s: default bounds failed: %s", p, res)
		}
		if res.MaxAbsDelta < res.MeanAbsDelta {
			t.Fatalf("%s: max %g < mean %g", p, res.MaxAbsDelta, res.MeanAbsDelta)
		}
		wantAbs, wantFlip := DefaultDivergenceBounds(infer.Precision(p))
		if res.BoundAbsDelta != wantAbs || res.BoundFlipRate != wantFlip {
			t.Fatalf("%s: judged against (%g, %g), want defaults (%g, %g)",
				p, res.BoundAbsDelta, res.BoundFlipRate, wantAbs, wantFlip)
		}
	}
}

// TestDivergenceConfig covers validation, defaulting and bound overrides.
func TestDivergenceConfig(t *testing.T) {
	det, recs := serveFixture(t)
	if err := (DivergenceConfig{Precision: "f64"}).Validate(); err == nil {
		t.Fatal("Validate accepted f64 as a candidate")
	}
	if err := (DivergenceConfig{Precision: "f16"}).Validate(); err == nil {
		t.Fatal("Validate accepted an unknown precision")
	}
	if err := (DivergenceConfig{}).Validate(); err != nil {
		t.Fatalf("empty config must be valid (defaults to f32): %v", err)
	}

	// Empty precision sweeps f32.
	res, err := RunDivergence(det, recs, DivergenceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Precision != infer.PrecisionF32 {
		t.Fatalf("empty precision swept %q, want f32", res.Precision)
	}
	if !strings.Contains(res.String(), "f32 vs f64") {
		t.Fatalf("report %q lacks the precision pair", res)
	}

	// An absurdly tight bound must fail the same sweep that passes by
	// default — Pass reflects the bounds, not the data.
	tight, err := RunDivergence(det, recs, DivergenceConfig{Precision: "int8", MaxAbsDelta: 1e-300})
	if err != nil {
		t.Fatal(err)
	}
	if tight.Pass || tight.BoundAbsDelta != 1e-300 {
		t.Fatalf("tight bound: pass=%v bound=%g, want failing sweep at 1e-300", tight.Pass, tight.BoundAbsDelta)
	}
	// Negative bounds disable the checks entirely.
	loose, err := RunDivergence(det, recs, DivergenceConfig{Precision: "int8", MaxAbsDelta: -1, MaxFlipRate: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !loose.Pass {
		t.Fatal("disabled bounds must always pass")
	}

	// Error paths.
	if _, err := RunDivergence(nil, recs, DivergenceConfig{}); err == nil {
		t.Fatal("accepted nil detector")
	}
	if _, err := RunDivergence(det, nil, DivergenceConfig{}); err == nil {
		t.Fatal("accepted zero records")
	}
}

// TestDetectorEnginePrecision: a reduced-precision engine must score every
// record bit-identically to the direct reduced scorer (the per-precision
// determinism contract), and its divergence from the f64 engine must be the
// harness's — serving adds nothing.
func TestDetectorEnginePrecision(t *testing.T) {
	det, recs := serveFixture(t)
	if err := (ServeConfig{Precision: "f16"}).Validate(); err == nil {
		t.Fatal("ServeConfig accepted precision f16")
	}
	if _, err := NewDetectorEngine(det, ServeConfig{Precision: "f16"}); err == nil {
		t.Fatal("NewDetectorEngine accepted precision f16")
	}
	for _, p := range []string{"f32", "int8"} {
		de, err := NewDetectorEngine(det, ServeConfig{Precision: p})
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := infer.ParsePrecision(p); de.Precision() != got {
			t.Fatalf("engine precision %q, want %q", de.Precision(), p)
		}
		prog, err := nn.Lower(det.Net, infer.Precision(p))
		if err != nil {
			t.Fatal(err)
		}
		direct := prog.NewArena()
		row := make([]float64, det.Features.Dim())
		for i := range recs {
			dataset.FeatureRowInto(row, &recs[i], det.Features)
			det.Scaler.TransformRow(row)
			want := direct.PredictProb1(row)
			got, _ := de.PredictRecord(&recs[i])
			if got != want {
				t.Fatalf("%s: record %d: engine %v != direct reduced path %v", p, i, got, want)
			}
		}
	}
}

// TestRunFootprintAt: the deployment-size accounting switches to the int8
// artefact when quantisation is on and stays the float32 format otherwise.
func TestRunFootprintAt(t *testing.T) {
	det, _ := serveFixture(t)
	f32r, err := RunFootprintAt(det, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	if f32r.SizeBytes != det.Net.SizeBytes(4) || f32r.Precision != "f64" {
		t.Fatalf("default footprint: size %d precision %q", f32r.SizeBytes, f32r.Precision)
	}
	i8r, err := RunFootprintAt(det, 1, "int8")
	if err != nil {
		t.Fatal(err)
	}
	ni, err := nn.Lower(det.Net, nn.I8)
	if err != nil {
		t.Fatal(err)
	}
	if i8r.SizeBytes != ni.SizeBytes() || i8r.Precision != "int8" {
		t.Fatalf("int8 footprint: size %d precision %q, want %d/int8", i8r.SizeBytes, i8r.Precision, ni.SizeBytes())
	}
	if i8r.SizeBytes*3 >= f32r.SizeBytes*4 {
		t.Fatalf("int8 artefact %d not meaningfully smaller than f32 %d", i8r.SizeBytes, f32r.SizeBytes)
	}
	if _, err := RunFootprintAt(det, 1, "f16"); err == nil {
		t.Fatal("RunFootprintAt accepted f16")
	}
}
