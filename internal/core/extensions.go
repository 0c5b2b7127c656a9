package core

import (
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/stats"
)

// This file implements the paper's stated future work (§VI: "an ML model
// that simultaneously performs occupancy detection and activity
// recognition") plus the occupant-counting task its Table II motivates,
// as extensions on the same substrate.

// MultiClassResult summarises a multi-class evaluation: overall accuracy,
// per-class recall, and the full confusion matrix (rows = truth).
type MultiClassResult struct {
	Accuracy  float64
	Confusion [][]int
	Recall    []float64
}

// EvaluateMultiClass scores predictions against truth over k classes.
func EvaluateMultiClass(truth, pred []int, k int) MultiClassResult {
	if len(truth) != len(pred) {
		panic(fmt.Sprintf("core: EvaluateMultiClass length mismatch %d vs %d", len(truth), len(pred)))
	}
	res := MultiClassResult{Confusion: make([][]int, k), Recall: make([]float64, k)}
	for i := range res.Confusion {
		res.Confusion[i] = make([]int, k)
	}
	correct := 0
	for i := range truth {
		res.Confusion[truth[i]][pred[i]]++
		if truth[i] == pred[i] {
			correct++
		}
	}
	if len(truth) > 0 {
		res.Accuracy = float64(correct) / float64(len(truth))
	}
	for c := 0; c < k; c++ {
		var row int
		for _, v := range res.Confusion[c] {
			row += v
		}
		if row > 0 {
			res.Recall[c] = float64(res.Confusion[c][c]) / float64(row)
		}
	}
	return res
}

// ActivityResult is the activity-recognition extension outcome: MLP and RF
// per-fold accuracy plus the pooled confusion analysis for the MLP.
type ActivityResult struct {
	MLPPerFold []float64 // percent
	RFPerFold  []float64
	MLPAvg     float64
	RFAvg      float64
	Pooled     MultiClassResult // MLP over all folds pooled
}

// WindowedActivityResult compares instantaneous-snapshot activity
// recognition against the windowed front-end (dataset.WindowSpec): the
// per-subcarrier temporal std makes brief walking bouts visible.
type WindowedActivityResult struct {
	WindowN           int
	SnapshotAvg       float64 // instantaneous MLP fold-average accuracy %
	WindowedAvg       float64
	SnapshotMotionRec float64 // pooled recall of the motion class
	WindowedMotionRec float64
	SnapshotPerFold   []float64
	WindowedPerFold   []float64
}

// RunActivity trains the activity classifier (the MLP, inverse-frequency
// weighted), an RF baseline and the same MLP on windowed (mean, std)
// features of 10 samples on the training fold, and evaluates each per test
// fold: the snapshot result and the windowing comparison.
func RunActivity(split *dataset.Split, cfg ExperimentConfig) (*ActivityResult, *WindowedActivityResult, error) {
	snap := baseCell(cfg, mlp, dataset.FeatCSI, activity)
	snap.name, snap.train = "activity MLP", cfg.NNTrain // the classifier keeps NNTrain's own shuffle seed
	rfc := baseCell(cfg, forest, dataset.FeatCSI, activity)
	rfc.name = "activity RF"
	win := baseCell(cfg, mlp, dataset.FeatCSI, activity)
	win.name, win.window = "windowed activity MLP", 10
	rows, err := runCells(split, cfg, []cell{snap, rfc, win})
	if err != nil {
		return nil, nil, err
	}
	res := &ActivityResult{MLPPerFold: rows[0].accs(), RFPerFold: rows[1].accs(), Pooled: rows[0].pooled}
	res.MLPAvg, res.RFAvg = stats.Mean(res.MLPPerFold), stats.Mean(res.RFPerFold)
	w := &WindowedActivityResult{
		WindowN:           win.window,
		SnapshotAvg:       res.MLPAvg,
		WindowedAvg:       stats.Mean(rows[2].accs()),
		SnapshotMotionRec: rows[0].pooled.Recall[dataset.ActivityMotion],
		WindowedMotionRec: rows[2].pooled.Recall[dataset.ActivityMotion],
		SnapshotPerFold:   res.MLPPerFold,
		WindowedPerFold:   rows[2].accs(),
	}
	return res, w, nil
}

// CountingResult is the occupant-counting extension outcome.
type CountingResult struct {
	Classes int
	// MLP softmax classifier over count classes.
	MLPExact []float64 // per-fold exact-match %, "how many people"
	MLPMAE   []float64 // per-fold MAE in persons
	// RF regression on the raw count.
	RFExact []float64
	RFMAE   []float64
	// Averages.
	MLPExactAvg, MLPMAEAvg float64
	RFExactAvg, RFMAEAvg   float64
}

// RunCounting estimates the number of simultaneous occupants (clamped at
// 4 ⇒ "4 or more") from CSI, with an MLP classifier and an RF regressor —
// the crowd-counting task of the paper's references [3], [12], [13] on our
// substrate.
func RunCounting(split *dataset.Split, cfg ExperimentConfig) (*CountingResult, error) {
	net := baseCell(cfg, mlp, dataset.FeatCSI, count)
	net.name = "counting MLP"
	reg := baseCell(cfg, forest, dataset.FeatCSI, count)
	reg.name = "counting RF"
	rows, err := runCells(split, cfg, []cell{net, reg})
	if err != nil {
		return nil, err
	}
	res := &CountingResult{Classes: countClasses, MLPExact: rows[0].accs(), RFExact: rows[1].accs()}
	for fi := range split.Folds {
		res.MLPMAE = append(res.MLPMAE, rows[0].folds[fi].mae)
		res.RFMAE = append(res.RFMAE, rows[1].folds[fi].mae)
	}
	res.MLPExactAvg, res.MLPMAEAvg = stats.Mean(res.MLPExact), stats.Mean(res.MLPMAE)
	res.RFExactAvg, res.RFMAEAvg = stats.Mean(res.RFExact), stats.Mean(res.RFMAE)
	return res, nil
}

// countScores returns (exact-match %, MAE in persons).
func countScores(truth, pred []int) (float64, float64) {
	if len(truth) == 0 {
		return 0, 0
	}
	exact := 0
	var mae float64
	for i, t := range truth {
		if pred[i] == t {
			exact++
		}
		mae += math.Abs(float64(t - pred[i]))
	}
	n := float64(len(truth))
	return 100 * float64(exact) / n, mae / n
}
