package core

import (
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/obs"
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

// TestDetectorEngineBitIdentical: the engine-served prediction must equal
// the direct Detector.PredictRecord path bit for bit, for every record,
// under dozens of concurrent callers and across worker counts (run with
// -race).
func TestDetectorEngineBitIdentical(t *testing.T) {
	det, recs := serveFixture(t)
	type ref struct {
		p     float64
		label int
	}
	want := make([]ref, len(recs))
	for i := range recs {
		p, l := det.PredictRecord(&recs[i])
		want[i] = ref{p, l}
	}
	for _, workers := range []int{1, 2, 8} {
		reg := obs.NewRegistry()
		de, err := NewDetectorEngine(det, ServeConfig{Workers: workers, Observer: reg})
		if err != nil {
			t.Fatal(err)
		}
		const feeds = 24
		var wg sync.WaitGroup
		for f := 0; f < feeds; f++ {
			wg.Add(1)
			go func(f int) {
				defer wg.Done()
				for k := 0; k < 2*len(recs); k++ {
					i := (f*31 + k) % len(recs)
					p, l := de.PredictRecord(&recs[i])
					if p != want[i].p || l != want[i].label {
						t.Errorf("workers=%d rec=%d: engine (%v,%d) != direct (%v,%d)",
							workers, i, p, l, want[i].p, want[i].label)
						return
					}
				}
			}(f)
		}
		wg.Wait()
		de.Close()
		if wantN, got := int64(feeds*2*len(recs)), reg.Counter("infer_requests_total", "").Value(); got != wantN {
			t.Fatalf("workers=%d: engine served %d requests, want %d", workers, got, wantN)
		}
	}
}

// TestDetectorEngineValidation covers constructor errors.
func TestDetectorEngineValidation(t *testing.T) {
	if _, err := NewDetectorEngine(nil, ServeConfig{}); err == nil {
		t.Fatal("expected error for nil detector")
	}
	if _, err := NewDetectorEngine(&Detector{}, ServeConfig{}); err == nil {
		t.Fatal("expected error for untrained detector")
	}
}
