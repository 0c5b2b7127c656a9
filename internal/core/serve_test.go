package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"sync"
	"testing"

	"repro/internal/cpukit"
	"repro/internal/dataset"
)

// serveFixture trains a small detector and collects a bank of records.
func serveFixture(t *testing.T) (*Detector, []dataset.Record) {
	t.Helper()
	_, split := testSplit(t)
	det, err := TrainDetector(split.Train.Thin(600), quickDetectorCfg(dataset.FeatCSIEnv))
	if err != nil {
		t.Fatal(err)
	}
	recs := split.Folds[0].Records
	if len(recs) > 256 {
		recs = recs[:256]
	}
	return det, recs
}

// hammer scores every record 2·len(recs) times over, from two dozen
// concurrent callers each walking the bank from its own offset, and fails
// on the first score that differs from want.
func hammer(t *testing.T, de *DetectorEngine, recs []dataset.Record, want []float64) {
	t.Helper()
	const callers = 24
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < 2*len(recs); k++ {
				i := (c*31 + k) % len(recs)
				if p, l := de.PredictRecord(&recs[i]); p != want[i] || l != label(want[i]) {
					t.Errorf("%s: record %d scored (%v,%d), want (%v,%d)",
						de.Precision(), i, p, l, want[i], label(want[i]))
					return
				}
			}
		}(c)
	}
	wg.Wait()
}

// label is the engine's threshold.
func label(p float64) int {
	if p >= 0.5 {
		return 1
	}
	return 0
}

// TestDetectorEngineBitIdentical: the engine-served prediction must equal
// the direct Detector.PredictRecord path bit for bit, label included, for
// every record under dozens of concurrent callers (run with -race).
func TestDetectorEngineBitIdentical(t *testing.T) {
	det, recs := serveFixture(t)
	want := make([]float64, len(recs))
	for i := range recs {
		p, l := det.PredictRecord(&recs[i])
		if l != label(p) {
			t.Fatalf("record %d: direct path labels %v as %d", i, p, l)
		}
		want[i] = p
	}
	de, err := NewDetectorEngine(det, ServeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	hammer(t, de, recs, want)
}

// TestDetectorEngineReducedPrecisionDeterministic is the same sweep at f32
// and int8: under concurrent callers every record scores exactly what a
// lone caller scored first — which pooled arena ran it and what ran beside
// it never reach the arithmetic.
func TestDetectorEngineReducedPrecisionDeterministic(t *testing.T) {
	det, recs := serveFixture(t)
	for _, p := range []string{"f32", "int8"} {
		de, err := NewDetectorEngine(det, ServeConfig{Precision: p})
		if err != nil {
			t.Fatal(err)
		}
		want := make([]float64, len(recs))
		for i := range recs {
			want[i], _ = de.PredictRecord(&recs[i])
		}
		hammer(t, de, recs, want)
	}
}

// TestDetectorEngineValidation covers constructor errors. The precision
// and unscorable-network refusals are checked with the serving contract in
// internal/infer.
func TestDetectorEngineValidation(t *testing.T) {
	if _, err := NewDetectorEngine(nil, ServeConfig{}); err == nil {
		t.Fatal("expected error for nil detector")
	}
	if _, err := NewDetectorEngine(&Detector{}, ServeConfig{}); err == nil {
		t.Fatal("expected error for untrained detector")
	}
}

// TestDetectorEngineKernel: Kernel reports cpukit's process-wide selection.
func TestDetectorEngineKernel(t *testing.T) {
	det, _ := serveFixture(t)
	de, err := NewDetectorEngine(det, ServeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := de.Kernel(), cpukit.Active().String(); got != want {
		t.Fatalf("Kernel() = %q, want %q", got, want)
	}
}

// TestNoClockInEngine keeps the clock-free property from creeping back:
// serve.go uses nothing from package time but the Duration type of
// MaxDelay — no Now, Since, After, NewTimer or NewTicker. The engine has
// nothing to wait for; a timer here is the micro-batch straggler wait
// returning.
func TestNoClockInEngine(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "serve.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == "time" && sel.Sel.Name != "Duration" {
				t.Errorf("serve.go uses time.%s; the engine must stay clock-free", sel.Sel.Name)
			}
		}
		return true
	})
}
