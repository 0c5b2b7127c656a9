package infer_test

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/infer"
	"repro/internal/linmodel"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// The serving engine is core.DetectorEngine: it lowers a detector at one of
// this package's precisions and scores each record on the caller's
// goroutine. These tests hold it to the contract infer's precision knob
// promises — every accepted precision serves, the empty one serves at f64,
// f64 is bit-identical to the batch forward pass, and the pooled path
// allocates nothing.

// identityScaler leaves feature rows as they are.
func identityScaler(dim int) *linmodel.Scaler {
	sc := &linmodel.Scaler{Mean: make([]float64, dim), Std: make([]float64, dim)}
	for j := range sc.Std {
		sc.Std[j] = 1
	}
	return sc
}

// testDetector builds an untrained CSI detector over net plus a bank of
// records with random CSI.
func testDetector(net *nn.Network, n int, rng *rand.Rand) (*core.Detector, []dataset.Record) {
	feat := dataset.FeatCSI
	det := &core.Detector{Net: net, Scaler: identityScaler(feat.Dim()), Features: feat}
	recs := make([]dataset.Record, n)
	for i := range recs {
		for j := range recs[i].CSI {
			recs[i].CSI[j] = rng.NormFloat64()
		}
	}
	return det, recs
}

// testEngine is an MLP detector, a bank of records and the reference
// (batch Network.PredictProbs) score of each record.
func testEngine(t testing.TB, n int) (*core.Detector, []dataset.Record, []float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	dim := dataset.FeatCSI.Dim()
	det, recs := testDetector(nn.NewMLP(dim, []int{32, 16}, 1, rng), n, rng)
	x := tensor.NewMatrix(n, dim)
	for i := range recs {
		dataset.FeatureRowInto(x.Row(i), &recs[i], det.Features)
		det.Scaler.TransformRow(x.Row(i))
	}
	return det, recs, det.Net.PredictProbs(x)
}

// TestEngineBitIdentical is the acceptance guarantee: under dozens of
// concurrent callers — any interleaving of who holds which pooled arena —
// every record the f64 engine scores is bit-identical to the batch
// PredictProbs forward pass over the same rows.
func TestEngineBitIdentical(t *testing.T) {
	det, recs, want := testEngine(t, 64)
	de, err := core.NewDetectorEngine(det, core.ServeConfig{Precision: "f64"})
	if err != nil {
		t.Fatal(err)
	}
	const feeds = 32
	var wg sync.WaitGroup
	for f := 0; f < feeds; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			// Each feed walks the bank from its own offset so the engine
			// sees interleaved, repeating traffic.
			for k := 0; k < 3*len(recs); k++ {
				i := (f + k) % len(recs)
				if p, _ := de.PredictRecord(&recs[i]); p != want[i] {
					t.Errorf("record %d scored %v, want %v", i, p, want[i])
					return
				}
			}
		}(f)
	}
	wg.Wait()
}

// TestPredictLabel checks the engine's 0.5 threshold at every precision:
// a constant detector whose probability is sigmoid(bias) labels 0.75 as
// occupied, 0.25 as empty, and exactly 0.5 as occupied.
func TestPredictLabel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, c := range []struct {
		bias  float64
		label int
	}{{math.Log(3), 1}, {-math.Log(3), 0}, {0, 1}} {
		net := nn.NewMLP(dataset.FeatCSI.Dim(), nil, 1, rng)
		head := net.Layers[0].(*nn.Dense)
		for j := range head.W.Data {
			head.W.Data[j] = 0
		}
		head.B.Data[0] = c.bias
		det, recs := testDetector(net, 4, rng)
		want := 1 / (1 + math.Exp(-c.bias))
		for _, p := range []string{"f64", "f32", "int8"} {
			de, err := core.NewDetectorEngine(det, core.ServeConfig{Precision: p})
			if err != nil {
				t.Fatal(err)
			}
			for i := range recs {
				got, l := de.PredictRecord(&recs[i])
				if math.Abs(got-want) > 1e-6 || l != c.label {
					t.Fatalf("%s bias %v: record %d scored (%v,%d), want (%v,%d)", p, c.bias, i, got, l, want, c.label)
				}
			}
		}
	}
}

// TestConfigValidatePrecision: the serving config rejects unknown
// precisions, accepts every precision ParsePrecision does, and normalises
// the empty default to f64.
func TestConfigValidatePrecision(t *testing.T) {
	det, _, _ := testEngine(t, 1)
	for _, s := range []string{"f16", "fp32", "F32", "int", "8"} {
		if err := (core.ServeConfig{Precision: s}).Validate(); err == nil {
			t.Fatalf("Validate accepted precision %q", s)
		}
		if _, err := core.NewDetectorEngine(det, core.ServeConfig{Precision: s}); err == nil {
			t.Fatalf("NewDetectorEngine accepted precision %q", s)
		}
	}
	for _, s := range []string{"", "f64", "f32", "int8"} {
		want, err := infer.ParsePrecision(s)
		if err != nil {
			t.Fatal(err)
		}
		de, err := core.NewDetectorEngine(det, core.ServeConfig{Precision: s})
		if err != nil {
			t.Fatalf("precision %q: %v", s, err)
		}
		if de.Precision() != want {
			t.Fatalf("precision %q normalised to %q, want %q", s, de.Precision(), want)
		}
	}
	if de, _ := core.NewDetectorEngine(det, core.ServeConfig{}); de.Precision() != infer.PrecisionF64 {
		t.Fatalf("empty precision normalised to %q, want f64", de.Precision())
	}
}

// TestNetworkScorerAtErrors: a stack no arena can score — here a CNN — is
// refused when the engine is built, at every precision, not on its first
// row.
func TestNetworkScorerAtErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	dim := dataset.FeatCSI.Dim()
	cnn, _ := testDetector(nn.NewCNN(dim, 1, rng), 0, rng)
	for _, p := range []infer.Precision{infer.PrecisionF64, infer.PrecisionF32, infer.PrecisionI8} {
		if _, err := core.NewDetectorEngine(cnn, core.ServeConfig{Precision: string(p)}); err == nil {
			t.Fatalf("%s: engine accepted a CNN", p)
		}
	}
}

// raceEnabled is set under -race, where sync.Pool drops items at random
// and a pooled path's allocation count means nothing.
var raceEnabled bool

// predictZeroAlloc fails if, once its pool holds a scratch, an engine at
// precision p allocates on PredictRecord.
func predictZeroAlloc(t *testing.T, p string) {
	t.Helper()
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	det, recs, _ := testEngine(t, 2)
	de, err := core.NewDetectorEngine(det, core.ServeConfig{Precision: p})
	if err != nil {
		t.Fatal(err)
	}
	de.PredictRecord(&recs[0]) // fill the pool
	if n := testing.AllocsPerRun(50, func() { de.PredictRecord(&recs[1]) }); n > 0 {
		t.Fatalf("%s: PredictRecord allocates %v per call in steady state, want 0", p, n)
	}
}

// TestEnginePredictZeroAlloc: taking a pooled scratch, scoring and
// returning it must not allocate in steady state.
func TestEnginePredictZeroAlloc(t *testing.T) { predictZeroAlloc(t, "f64") }

// TestEngineF32PredictZeroAlloc: the reduced-precision serving path keeps
// the steady-state zero-allocation property.
func TestEngineF32PredictZeroAlloc(t *testing.T) { predictZeroAlloc(t, "f32") }
