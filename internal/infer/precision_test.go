package infer

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/nn"
)

// TestParsePrecision covers the flag/config string mapping.
func TestParsePrecision(t *testing.T) {
	for s, want := range map[string]Precision{
		"": PrecisionF64, "f64": PrecisionF64,
		"f32": PrecisionF32, "int8": PrecisionI8,
	} {
		got, err := ParsePrecision(s)
		if err != nil || got != want {
			t.Fatalf("ParsePrecision(%q) = (%v, %v), want %v", s, got, err, want)
		}
	}
	for _, s := range []string{"f16", "fp32", "F32", "int", "8"} {
		if _, err := ParsePrecision(s); err == nil {
			t.Fatalf("ParsePrecision(%q) accepted", s)
		}
	}
}

// TestConfigValidatePrecision: the config contract rejects unknown
// precisions and normalises the empty default.
func TestConfigValidatePrecision(t *testing.T) {
	scorer := newIdentityScorer
	if err := (Config{NewScorer: scorer, Precision: "f16"}).Validate(); err == nil {
		t.Fatal("Validate accepted precision f16")
	}
	if _, err := New(Config{NewScorer: scorer, Precision: "f16"}); err == nil {
		t.Fatal("New accepted precision f16")
	}
	eng, err := New(Config{NewScorer: scorer, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if eng.Precision() != PrecisionF64 {
		t.Fatalf("empty precision normalised to %q, want f64", eng.Precision())
	}
}

// TestNetworkScorerAtErrors: unknown precisions and stacks no arena can
// score fail at construction, at every precision, not at score time.
func TestNetworkScorerAtErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	net := nn.NewMLP(4, []int{4}, 1, rng)
	if _, err := NetworkScorerAt(net, "f16"); err == nil {
		t.Fatal("NetworkScorerAt accepted f16")
	}
	cnn := nn.NewCNN(12, 1, rng)
	for _, p := range []Precision{PrecisionF64, PrecisionF32, PrecisionI8} {
		if _, err := NetworkScorerAt(cnn, p); err == nil {
			t.Fatalf("NetworkScorerAt(%s) accepted a CNN", p)
		}
	}
}

// TestEngineReducedPrecisionBitIdentical is TestEngineBitIdentical for the
// reduced paths: for any arena count under concurrent callers, every row
// scores bit-identically to a direct arena over the same lowered network
// — concurrency affects scheduling, never arithmetic, at every precision.
func TestEngineReducedPrecisionBitIdentical(t *testing.T) {
	net, rows, _ := testNet(t, 64)
	for _, p := range []Precision{PrecisionF32, PrecisionI8} {
		newScorer, err := NetworkScorerAt(net, p)
		if err != nil {
			t.Fatal(err)
		}
		direct := newScorer()
		want := make([]float64, len(rows))
		for i, r := range rows {
			want[i] = direct.PredictProb1(r)
		}
		for _, workers := range []int{1, 2, 8} {
			eng, err := New(Config{NewScorer: newScorer, Precision: p, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if eng.Precision() != p {
				t.Fatalf("engine precision %q, want %q", eng.Precision(), p)
			}
			const feeds = 24
			var wg sync.WaitGroup
			for f := 0; f < feeds; f++ {
				wg.Add(1)
				go func(f int) {
					defer wg.Done()
					for k := 0; k < 2*len(rows); k++ {
						i := (f + k) % len(rows)
						if got := eng.Predict(rows[i]); got != want[i] {
							t.Errorf("%s workers=%d: row %d scored %v, want %v", p, workers, i, got, want[i])
							return
						}
					}
				}(f)
			}
			wg.Wait()
			eng.Close()
		}
	}
}

// TestEngineF32PredictZeroAlloc: the reduced-precision path keeps the
// engine's steady-state zero-allocation property.
func TestEngineF32PredictZeroAlloc(t *testing.T) {
	net, rows, _ := testNet(t, 8)
	newScorer, err := NetworkScorerAt(net, PrecisionF32)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(Config{NewScorer: newScorer, Precision: PrecisionF32, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	eng.Predict(rows[0]) // warm the arena
	if n := testing.AllocsPerRun(50, func() { eng.Predict(rows[0]) }); n > 0 {
		t.Fatalf("f32 Predict allocates %v per call in steady state, want 0", n)
	}
}
