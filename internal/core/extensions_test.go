package core

import (
	"testing"

	"repro/internal/dataset"
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

// TestActivityCellBeatsMajority scores the activity classifier in-sample
// (its training set is its one test fold): it must comfortably beat the
// majority class. An empty training set is an error.
func TestActivityCellBeatsMajority(t *testing.T) {
	_, split := testSplit(t)
	cfg := quickCfg()
	cfg.Hidden = []int{32, 16}
	cfg.NNTrain.Epochs = 8
	cfg.NNTrain.BatchSize = 64
	train := split.Train.Thin(1500)
	c := baseCell(cfg, mlp, dataset.FeatCSI, activity)
	rows, err := runCells(&dataset.Split{Train: train, Folds: []*dataset.Dataset{train}}, cfg, []cell{c})
	if err != nil {
		t.Fatal(err)
	}
	major := map[int]int{}
	for i := range train.Records {
		major[train.Records[i].ActivityLabel()]++
	}
	best := 0
	for _, c := range major {
		if c > best {
			best = c
		}
	}
	baseline := float64(best) / float64(train.Len())
	if acc := rows[0].pooled.Accuracy; acc <= baseline {
		t.Fatalf("activity accuracy %.3f not above majority baseline %.3f", acc, baseline)
	}
	empty := &dataset.Split{Train: &dataset.Dataset{}, Folds: split.Folds}
	if _, err := runCells(empty, cfg, []cell{c}); err == nil {
		t.Fatal("empty training set must error")
	}
}

func TestRunActivity(t *testing.T) {
	_, split := testSplit(t)
	res, _, err := RunActivity(split, quickCfg())
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
	if _, _, err := RunActivity(bad, quickCfg()); err == nil {
		t.Fatal("no folds must error")
	}
}

func TestRunCounting(t *testing.T) {
	_, split := testSplit(t)
	res, err := RunCounting(split, quickCfg())
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
}

func TestCountScores(t *testing.T) {
	exact, mae := countScores([]int{0, 1, 2}, []int{0, 2, 2})
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
	act, res, err := RunActivity(split, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.WindowN != 10 {
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
	// The snapshot side is the activity classifier itself, not a retrain.
	if res.SnapshotAvg != act.MLPAvg || res.SnapshotMotionRec != act.Pooled.Recall[dataset.ActivityMotion] {
		t.Fatalf("snapshot %v/%v differs from the activity MLP %v/%v", res.SnapshotAvg,
			res.SnapshotMotionRec, act.MLPAvg, act.Pooled.Recall[dataset.ActivityMotion])
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
