package core

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/tensor"
)

func TestEvaluateMultiClass(t *testing.T) {
	truth := []int{0, 0, 1, 2, 2, 2}
	pred := []int{0, 1, 1, 2, 2, 0}
	res := EvaluateMultiClass(truth, pred, 3)
	if res.Accuracy != 4.0/6 {
		t.Fatalf("accuracy %g", res.Accuracy)
	}
	if res.Confusion[0][1] != 1 || res.Confusion[2][0] != 1 || res.Confusion[2][2] != 2 {
		t.Fatalf("confusion %v", res.Confusion)
	}
	if res.Recall[0] != 0.5 || res.Recall[1] != 1 || res.Recall[2] != 2.0/3 {
		t.Fatalf("recall %v", res.Recall)
	}
	empty := EvaluateMultiClass(nil, nil, 2)
	if empty.Accuracy != 0 || empty.Recall[0] != 0 {
		t.Fatal("empty eval")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	EvaluateMultiClass([]int{0}, []int{0, 1}, 2)
}

func TestTrainActivityAndPredict(t *testing.T) {
	_, split := testSplit(t)
	acfg := ActivityConfig{Hidden: []int{32, 16}, Train: nn.DefaultTrainConfig(), Seed: 1}
	acfg.Train.Epochs = 8
	acfg.Train.BatchSize = 64
	train := thin(split.Train, 1500)
	clf, err := TrainActivity(train, acfg)
	if err != nil {
		t.Fatal(err)
	}
	// In-sample: must comfortably beat the majority class.
	truth := train.ActivityLabels()
	pred := clf.Predict(train)
	res := EvaluateMultiClass(truth, pred, dataset.NumActivities)
	major := map[int]int{}
	for _, l := range truth {
		major[l]++
	}
	best := 0
	for _, c := range major {
		if c > best {
			best = c
		}
	}
	baseline := float64(best) / float64(len(truth))
	if res.Accuracy <= baseline {
		t.Fatalf("activity accuracy %.3f not above majority baseline %.3f", res.Accuracy, baseline)
	}
	if _, err := TrainActivity(&dataset.Dataset{}, acfg); err == nil {
		t.Fatal("empty training set must error")
	}
}

func TestRunActivity(t *testing.T) {
	_, split := testSplit(t)
	res, err := RunActivity(split, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.MLPPerFold) != 5 || len(res.RFPerFold) != 5 {
		t.Fatal("per-fold lengths")
	}
	for i := range res.MLPPerFold {
		if res.MLPPerFold[i] < 0 || res.MLPPerFold[i] > 100 {
			t.Fatalf("fold %d accuracy %g", i, res.MLPPerFold[i])
		}
	}
	if res.MLPAvg <= 0 || res.RFAvg <= 0 {
		t.Fatal("averages")
	}
	// Pooled confusion must cover all evaluated samples.
	total := 0
	for _, row := range res.Pooled.Confusion {
		for _, v := range row {
			total += v
		}
	}
	if total == 0 {
		t.Fatal("empty pooled confusion")
	}
	bad := &dataset.Split{Train: split.Train}
	if _, err := RunActivity(bad, quickCfg()); err == nil {
		t.Fatal("no folds must error")
	}
}

func TestRunCounting(t *testing.T) {
	_, split := testSplit(t)
	res, err := RunCounting(split, 5, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Classes != 5 {
		t.Fatal("classes")
	}
	if len(res.MLPExact) != 5 || len(res.RFExact) != 5 {
		t.Fatal("per-fold lengths")
	}
	for i := range res.MLPExact {
		if res.MLPExact[i] < 0 || res.MLPExact[i] > 100 || res.MLPMAE[i] < 0 {
			t.Fatalf("fold %d scores %g/%g", i, res.MLPExact[i], res.MLPMAE[i])
		}
		if res.RFMAE[i] > 4 {
			t.Fatalf("RF counting MAE %g implausible (max class distance is 4)", res.RFMAE[i])
		}
	}
	// Counting must beat always-guessing-the-wrong-extreme: MAE below 2.
	if res.RFMAEAvg > 2 || res.MLPMAEAvg > 2 {
		t.Fatalf("counting MAE too high: RF %g MLP %g", res.RFMAEAvg, res.MLPMAEAvg)
	}
	// Default classes kick in for degenerate input.
	res2, err := RunCounting(split, 0, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res2.Classes != 5 {
		t.Fatal("default classes")
	}
}

func TestCountScores(t *testing.T) {
	exact, mae := countScores([]int{0, 1, 2}, []float64{0, 2, 2})
	if exact != 100.0*2/3 {
		t.Fatalf("exact %g", exact)
	}
	if mae != 1.0/3 {
		t.Fatalf("mae %g", mae)
	}
	if e, m := countScores(nil, nil); e != 0 || m != 0 {
		t.Fatal("empty")
	}
}

func TestRunWindowedActivity(t *testing.T) {
	_, split := testSplit(t)
	cfg := quickCfg()
	res, err := RunWindowedActivity(split, 6, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.WindowN != 6 {
		t.Fatal("window size")
	}
	if len(res.SnapshotPerFold) != 5 || len(res.WindowedPerFold) != 5 {
		t.Fatal("per-fold lengths")
	}
	for i := range res.WindowedPerFold {
		if res.WindowedPerFold[i] < 0 || res.WindowedPerFold[i] > 100 {
			t.Fatalf("accuracy %g", res.WindowedPerFold[i])
		}
	}
	if res.WindowedAvg <= 0 || res.SnapshotAvg <= 0 {
		t.Fatal("averages")
	}
	// Default window for degenerate N.
	res2, err := RunWindowedActivity(split, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res2.WindowN != 10 {
		t.Fatal("default window")
	}
}

func TestThinRows(t *testing.T) {
	x := tensor.NewMatrix(10, 2)
	idx := make([]int, 10)
	for i := 0; i < 10; i++ {
		x.Set(i, 0, float64(i))
		idx[i] = i * 3
	}
	ox, oidx := thinRows(x, idx, 4)
	if ox.Rows > 4 || len(oidx) != ox.Rows {
		t.Fatalf("thin shape %d", ox.Rows)
	}
	if ox.At(0, 0) != 0 || oidx[0] != 0 {
		t.Fatal("first row dropped")
	}
	// No-op cases.
	if ox2, _ := thinRows(x, idx, 0); ox2 != x {
		t.Fatal("max 0 must keep all")
	}
	if ox3, _ := thinRows(x, idx, 100); ox3 != x {
		t.Fatal("large cap must keep all")
	}
}
