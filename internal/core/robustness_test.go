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
	if p.DropRate != 0 || p.Degradations != 0 || p.FallbackFrac != 0 {
		t.Fatalf("clean point reports faults: drop=%v degr=%d fallback=%v",
			p.DropRate, p.Degradations, p.FallbackFrac)
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
		if pa.DropRate != pb.DropRate || pa.Degradations != pb.Degradations {
			t.Fatalf("intensity %v: stats differ across worker counts", pa.Intensity)
		}
	}
}

// TestRunRobustnessDegradesUnderOutage drives the pipeline at intensity 1:
// ~20% bursty frame loss plus a full env-sensor outage. The acceptance contract: the
// runtime must not panic, every fold's pipeline must fall back to the
// CSI-only model within one watchdog interval, and the clean point must be
// unaffected.
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
	if faulty.Degradations < len(split.Folds) {
		t.Fatalf("only %d degradations across %d folds: pipeline did not fall back everywhere",
			faulty.Degradations, len(split.Folds))
	}
	// Env is dead from frame 0, so the watchdog must trip within its first
	// interval (the stream default, 40 frames) in every fold.
	if faulty.MaxFirstFallbackFrame < 0 || faulty.MaxFirstFallbackFrame > 40 {
		t.Fatalf("first fallback at frame %d, want within one watchdog interval (40 frames)",
			faulty.MaxFirstFallbackFrame)
	}
	if faulty.FallbackFrac < 0.9 {
		t.Fatalf("fallback served only %.0f%% of frames under a full env outage", 100*faulty.FallbackFrac)
	}
	// The fallback path must still produce usable accuracy: no worse than a
	// coin flip even with a fifth of the frames destroyed.
	if faulty.PipeAvg < 50 {
		t.Fatalf("pipeline accuracy collapsed to %.1f%% under faults", faulty.PipeAvg)
	}
	clean := res.Points[0]
	if clean.DropRate != 0 || clean.Degradations != 0 {
		t.Fatalf("clean point contaminated by sweep: drop=%v degr=%d", clean.DropRate, clean.Degradations)
	}
}
