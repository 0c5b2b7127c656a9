package core

import (
	"testing"

	"repro/internal/dataset"
)

// TestRunRobustnessCleanReproducesTable4 is the acceptance contract for the
// sweep's clean end: with zero fault intensity, the streamed per-record
// evaluation must reproduce the seed Table IV MLP accuracies bit-identically
// — not approximately — for both the CSI-only column and the C+E column.
func TestRunRobustnessCleanReproducesTable4(t *testing.T) {
	_, split := testSplit(t)
	cfg := shrink(quickCfg())

	t4, err := RunTable4(split, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunRobustness(split, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 5 {
		t.Fatalf("got %d points, want 5", len(res.Points))
	}
	p := res.Points[0]
	if p.Intensity != 0 {
		t.Fatalf("first point at intensity %v, want the clean 0", p.Intensity)
	}
	var mlpIdx int = -1
	for mi, m := range Table4Models {
		if m == ModelMLP {
			mlpIdx = mi
		}
	}
	if mlpIdx < 0 {
		t.Fatal("MLP missing from Table4Models")
	}
	for fi := range split.Folds {
		if got, want := p.CSIOnly[fi], t4.Acc[fi][mlpIdx][dataset.FeatCSI]; got != want {
			t.Fatalf("fold %d CSI-only: clean sweep %v != Table IV %v", fi+1, got, want)
		}
		if got, want := p.Pipeline[fi], t4.Acc[fi][mlpIdx][dataset.FeatCSIEnv]; got != want {
			t.Fatalf("fold %d pipeline: clean sweep %v != Table IV %v", fi+1, got, want)
		}
	}
	if p.DropRate != 0 || p.FallbackFrac != 0 || p.ImputedFrac != 0 || p.HeldFrac != 0 {
		t.Fatalf("clean point reports faults: drop=%v fallback=%v imputed=%v held=%v",
			p.DropRate, p.FallbackFrac, p.ImputedFrac, p.HeldFrac)
	}
}

// TestRunRobustnessDeterministicAcrossWorkerCounts: identical fault traces
// and results for any -workers value — every cell seeds its injector from
// its grid index alone.
func TestRunRobustnessDeterministicAcrossWorkerCounts(t *testing.T) {
	_, split := testSplit(t)
	base := shrink(quickCfg())

	var results []*RobustnessResult
	for _, w := range []int{1, 4} {
		cfg := base
		cfg.Workers = w
		res, err := RunRobustness(split, cfg)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	a, b := results[0], results[1]
	for ii := range a.Points {
		pa, pb := a.Points[ii], b.Points[ii]
		if pa.TraceHash != pb.TraceHash {
			t.Fatalf("intensity %v: fault trace hash differs across worker counts: %x vs %x",
				pa.Intensity, pa.TraceHash, pb.TraceHash)
		}
		for fi := range pa.CSIOnly {
			if pa.CSIOnly[fi] != pb.CSIOnly[fi] || pa.Pipeline[fi] != pb.Pipeline[fi] {
				t.Fatalf("intensity %v fold %d: accuracies differ across worker counts", pa.Intensity, fi+1)
			}
		}
		if pa.DropRate != pb.DropRate || pa.FallbackFrac != pb.FallbackFrac || pa.ImputedFrac != pb.ImputedFrac {
			t.Fatalf("intensity %v: stats differ across worker counts", pa.Intensity)
		}
	}
}

// TestRunRobustnessDegradesUnderOutage drives the pipeline at intensity 1:
// ~20% bursty frame loss plus the profile's intermittent env outages. The
// acceptance contract: the runtime must not panic, the fallback must not
// take over the stream, the pipeline must keep usable accuracy, and the
// clean point must be unaffected. A sensor
// dead for the whole stream is the stream package's
// TestDeadEnvSensorIsTheFallbackRuntime.
func TestRunRobustnessDegradesUnderOutage(t *testing.T) {
	_, split := testSplit(t)
	cfg := shrink(quickCfg())
	res, err := RunRobustness(split, cfg)
	if err != nil {
		t.Fatal(err)
	}
	faulty := res.Points[3]
	if faulty.Intensity != 1 {
		t.Fatalf("point 3 at intensity %v, want 1", faulty.Intensity)
	}
	if faulty.DropRate < 0.10 || faulty.DropRate > 0.40 {
		t.Fatalf("drop rate %v outside the expected bursty-loss band", faulty.DropRate)
	}
	// Outages are intermittent: a sweep that killed the env feed outright
	// would hand nearly every frame to the fallback.
	if faulty.FallbackFrac >= 0.5 {
		t.Fatalf("fallback served %.1f%% of frames under intermittent env outages", 100*faulty.FallbackFrac)
	}
	// The pipeline must still produce usable accuracy: no worse than a
	// coin flip even with a fifth of the frames destroyed.
	if faulty.PipeAvg < 50 {
		t.Fatalf("pipeline accuracy collapsed to %.1f%% under faults", faulty.PipeAvg)
	}
	clean := res.Points[0]
	if clean.DropRate != 0 || clean.FallbackFrac != 0 {
		t.Fatalf("clean point contaminated by sweep: drop=%v fallback=%v", clean.DropRate, clean.FallbackFrac)
	}
}
