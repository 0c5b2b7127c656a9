package core

import (
	"testing"

	"repro/internal/dataset"
)

func ablationCfg() ExperimentConfig {
	cfg := quickCfg()
	cfg.NNTrain.Epochs = 4
	cfg.MaxTrainSamples = 800
	cfg.MaxEvalSamples = 200
	return cfg
}

// runAblation runs one sweep.
func runAblation(t *testing.T, split *dataset.Split, dim string) *AblationResult {
	t.Helper()
	res, err := RunAblation(split, ablationCfg(), dim)
	if err != nil {
		t.Fatal(err)
	}
	return res[0]
}

func TestRunArchitectureAblation(t *testing.T) {
	_, split := testSplit(t)
	res := runAblation(t, split, "arch")
	if res.Dimension != "architecture" || len(res.Points) != 4 {
		t.Fatalf("sweep shape: %+v", res)
	}
	// Parameter counts must strictly increase across the sweep order.
	for i := 1; i < len(res.Points); i++ {
		if res.Points[i].Params <= res.Points[i-1].Params {
			t.Fatalf("params not increasing: %d then %d", res.Points[i-1].Params, res.Points[i].Params)
		}
	}
	for _, p := range res.Points {
		if p.Acc < 0 || p.Acc > 100 || len(p.PerFold) != 5 || p.TrainTime <= 0 {
			t.Fatalf("bad point %+v", p)
		}
	}
	// The paper topology's parameter count is the documented one.
	if res.Points[2].Params != 8320+33024+32896+129 {
		t.Fatalf("paper topology params %d", res.Points[2].Params)
	}
}

func TestRunStandardizationAblation(t *testing.T) {
	_, split := testSplit(t)
	res := runAblation(t, split, "std")
	if len(res.Points) != 2 {
		t.Fatal("want 2 points")
	}
	if res.Points[0].Name != "standardised" || res.Points[1].Name != "raw amplitudes" {
		t.Fatalf("names %q %q", res.Points[0].Name, res.Points[1].Name)
	}
}

func TestRunTrainSizeAblation(t *testing.T) {
	_, split := testSplit(t)
	res := runAblation(t, split, "size")
	if len(res.Points) != 4 || res.Points[0].Name != "500" {
		t.Fatalf("sweep %+v", res)
	}
}

func TestRunEpochsAblation(t *testing.T) {
	_, split := testSplit(t)
	// One worker: the sweep's cells train one after another, so each
	// TrainTime measures its own epochs, not time spent descheduled while
	// the 30-epoch cell shares the cores.
	cfg := ablationCfg()
	cfg.Workers = 1
	all, err := RunAblation(split, cfg, "epochs")
	if err != nil {
		t.Fatal(err)
	}
	res := all[0]
	if len(res.Points) != 4 {
		t.Fatal("sweep length")
	}
	// More epochs must not make training *faster*.
	if res.Points[1].TrainTime < res.Points[0].TrainTime/2 {
		t.Fatalf("epoch timing implausible: %v then %v", res.Points[0].TrainTime, res.Points[1].TrainTime)
	}
}

// TestTrainEvalMLPNoFolds: a standardised-CSI MLP cell, the one every
// network sweep varies, refuses a split with no test folds.
func TestTrainEvalMLPNoFolds(t *testing.T) {
	_, split := testSplit(t)
	bad := &dataset.Split{Train: split.Train}
	cfg := ablationCfg()
	if _, err := runCells(bad, cfg, []cell{baseCell(cfg, mlp, dataset.FeatCSI, occupancy)}); err == nil {
		t.Fatal("no folds must error")
	}
}

func TestRunModelFamilyAblation(t *testing.T) {
	_, split := testSplit(t)
	res := runAblation(t, split, "family")
	if len(res.Points) != 2 || res.Points[0].Name != "MLP" || res.Points[1].Name != "CNN (conv1d)" {
		t.Fatalf("family points %+v", res.Points)
	}
	for _, p := range res.Points {
		if p.Acc < 0 || p.Acc > 100 || p.Params <= 0 {
			t.Fatalf("bad point %+v", p)
		}
	}
	// The CNN is smaller than the paper MLP topology (the test config may
	// shrink the MLP itself, so compare against the documented count).
	if res.Points[1].Params >= 8320+33024+32896+129 {
		t.Fatalf("CNN params %d not below the paper MLP's", res.Points[1].Params)
	}
	bad := &dataset.Split{Train: split.Train}
	if _, err := RunAblation(bad, ablationCfg(), "family"); err == nil {
		t.Fatal("no folds must error")
	}
}

func TestRunPreprocessAblation(t *testing.T) {
	_, split := testSplit(t)
	res := runAblation(t, split, "preproc")
	if res.Dimension != "preprocessing" || len(res.Points) != 5 {
		t.Fatalf("sweep %+v", res)
	}
	if res.Points[4].Name != "pca-16" {
		t.Fatalf("pca arm missing: %q", res.Points[4].Name)
	}
	if res.Points[0].Name != "raw" {
		t.Fatalf("first arm must be raw, got %q", res.Points[0].Name)
	}
	for _, p := range res.Points {
		if p.Acc < 0 || p.Acc > 100 || len(p.PerFold) != 5 {
			t.Fatalf("bad point %+v", p)
		}
	}
}

// TestAblationSharedCellTrainsOnce: the Table IV MLP on CSI is a point of
// every sweep; run together, the sweeps train it once, so every copy
// reports the same training run.
func TestAblationSharedCellTrainsOnce(t *testing.T) {
	_, split := testSplit(t)
	cfg := shrink(quickCfg())
	res, err := RunAblation(split, cfg, "std", "family", "preproc")
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("got %d sweeps, want 3", len(res))
	}
	std, family, raw := res[0].Points[0], res[1].Points[0], res[2].Points[0]
	for _, p := range []AblationPoint{family, raw} {
		if p.TrainTime != std.TrainTime || p.Acc != std.Acc {
			t.Fatalf("%q trained separately from %q: %v/%v vs %v/%v",
				p.Name, std.Name, p.TrainTime, p.Acc, std.TrainTime, std.Acc)
		}
	}
	if _, err := RunAblation(split, cfg, "archx"); err == nil {
		t.Fatal("unknown sweep must error")
	}
}
