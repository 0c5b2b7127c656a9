package core

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/linmodel"
	"repro/internal/nn"
	"repro/internal/rf"
	"repro/internal/tensor"
)

// This file implements the paper's stated future work (§VI: "an ML model
// that simultaneously performs occupancy detection and activity
// recognition") plus the occupant-counting task its Table II motivates,
// as extensions on the same substrate.

// ActivityClassifier recognises the 3-class activity state
// (empty / static occupancy / motion) from CSI amplitudes.
type ActivityClassifier struct {
	Net    *nn.Network
	Scaler *linmodel.Scaler
}

// ActivityConfig controls TrainActivity.
type ActivityConfig struct {
	Hidden []int
	Train  nn.TrainConfig
	Seed   int64
}

// Validate reports whether the configuration is trainable (positive hidden
// widths, valid training hyper-parameters). TrainActivity calls it.
func (c ActivityConfig) Validate() error {
	if err := validHidden(c.Hidden); err != nil {
		return err
	}
	return c.Train.Validate()
}

// TrainActivity fits the activity classifier on CSI features.
func TrainActivity(train *dataset.Dataset, cfg ActivityConfig) (*ActivityClassifier, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if train.Len() == 0 {
		return nil, fmt.Errorf("core: empty training set")
	}
	if len(cfg.Hidden) == 0 {
		cfg.Hidden = append([]int(nil), PaperHidden...)
	}
	x, _ := train.Matrix(dataset.FeatCSI)
	scaler := linmodel.FitScaler(x)
	xs := scaler.Transform(x)
	labels := train.ActivityLabels()
	y := nn.OneHot(labels, dataset.NumActivities)
	rng := rand.New(rand.NewSource(cfg.Seed))
	net := nn.NewMLP(dataset.FeatCSI.Dim(), cfg.Hidden, dataset.NumActivities, rng)
	// Inverse-frequency weighting: motion samples are a small minority
	// (walking bouts last seconds), and the unweighted objective would
	// simply ignore that class.
	loss := nn.SoftmaxCE{ClassWeights: nn.InverseFrequencyWeights(labels, dataset.NumActivities)}
	net.Fit(xs, y, loss, cfg.Train)
	return &ActivityClassifier{Net: net, Scaler: scaler}, nil
}

// Predict returns the activity class per record.
func (a *ActivityClassifier) Predict(ds *dataset.Dataset) []int {
	x, _ := ds.Matrix(dataset.FeatCSI)
	return a.Net.PredictClasses(a.Scaler.Transform(x))
}

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

// RunActivity trains the activity classifier and an RF baseline on the
// training fold and evaluates both per test fold.
func RunActivity(split *dataset.Split, cfg ExperimentConfig) (*ActivityResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(split.Folds) == 0 {
		return nil, fmt.Errorf("core: split has no test folds")
	}
	train := thin(split.Train, cfg.MaxTrainSamples)
	acfg := ActivityConfig{Hidden: cfg.Hidden, Train: cfg.NNTrain, Seed: cfg.Seed}
	clf, err := TrainActivity(train, acfg)
	if err != nil {
		return nil, err
	}

	// RF baseline: one-vs-rest is unnecessary — CART handles multi-class
	// via per-class probability trees; here we train one forest per class
	// and take the argmax, the standard reduction with binary-leaf trees.
	x, _ := train.Matrix(dataset.FeatCSI)
	labels := train.ActivityLabels()
	forests := make([]*rf.Forest, dataset.NumActivities)
	for c := range forests {
		bin := make([]int, len(labels))
		for i, l := range labels {
			if l == c {
				bin[i] = 1
			}
		}
		fcfg := cfg.RF
		fcfg.Seed = cfg.Seed + int64(c)
		forests[c] = rf.FitClassifier(x, bin, fcfg)
	}
	rfPredict := func(ds *dataset.Dataset) []int {
		xf, _ := ds.Matrix(dataset.FeatCSI)
		out := make([]int, xf.Rows)
		for i := 0; i < xf.Rows; i++ {
			row := xf.Row(i)
			best, bestP := 0, math.Inf(-1)
			for c, f := range forests {
				if p := f.PredictProb(row); p > bestP {
					best, bestP = c, p
				}
			}
			out[i] = best
		}
		return out
	}

	res := &ActivityResult{}
	var pooledTruth, pooledPred []int
	for _, fold := range split.Folds {
		ev := thin(fold, cfg.MaxEvalSamples)
		truth := ev.ActivityLabels()

		mlpPred := clf.Predict(ev)
		mlpAcc := 100 * EvaluateMultiClass(truth, mlpPred, dataset.NumActivities).Accuracy
		res.MLPPerFold = append(res.MLPPerFold, mlpAcc)
		res.MLPAvg += mlpAcc

		rfp := rfPredict(ev)
		rfAcc := 100 * EvaluateMultiClass(truth, rfp, dataset.NumActivities).Accuracy
		res.RFPerFold = append(res.RFPerFold, rfAcc)
		res.RFAvg += rfAcc

		pooledTruth = append(pooledTruth, truth...)
		pooledPred = append(pooledPred, mlpPred...)
	}
	n := float64(len(split.Folds))
	res.MLPAvg /= n
	res.RFAvg /= n
	res.Pooled = EvaluateMultiClass(pooledTruth, pooledPred, dataset.NumActivities)
	return res, nil
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

// RunWindowedActivity runs the activity task twice — on raw snapshots and
// on windowed (mean, std) features — quantifying the windowing ablation.
func RunWindowedActivity(split *dataset.Split, windowN int, cfg ExperimentConfig) (*WindowedActivityResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(split.Folds) == 0 {
		return nil, fmt.Errorf("core: split has no test folds")
	}
	if windowN < 2 {
		windowN = 10
	}
	if len(cfg.Hidden) == 0 {
		cfg.Hidden = append([]int(nil), PaperHidden...)
	}
	res := &WindowedActivityResult{WindowN: windowN}

	// Baseline: the plain snapshot classifier.
	base, err := RunActivity(split, cfg)
	if err != nil {
		return nil, err
	}
	res.SnapshotAvg = base.MLPAvg
	res.SnapshotPerFold = base.MLPPerFold
	res.SnapshotMotionRec = base.Pooled.Recall[dataset.ActivityMotion]

	// Windowed: same MLP family on (mean, std) features. Windows are
	// computed on the full-rate series (thinning first would stretch a
	// "1-second" window over minutes), then the *rows* are thinned.
	spec := dataset.WindowSpec{N: windowN}
	xwFull, idxFull, err := split.Train.WindowedMatrix(spec)
	if err != nil {
		return nil, err
	}
	xw, idx := thinRows(xwFull, idxFull, cfg.MaxTrainSamples)
	labels := split.Train.WindowedLabels(idx, func(r *dataset.Record) int { return r.ActivityLabel() })
	scaler := linmodel.FitScaler(xw)
	xs := scaler.Transform(xw)
	net := nn.NewMLP(spec.Dim(), cfg.Hidden, dataset.NumActivities, rand.New(rand.NewSource(cfg.Seed)))
	tcfg := cfg.NNTrain
	tcfg.Seed = cfg.Seed
	wloss := nn.SoftmaxCE{ClassWeights: nn.InverseFrequencyWeights(labels, dataset.NumActivities)}
	net.Fit(xs, nn.OneHot(labels, dataset.NumActivities), wloss, tcfg)

	var pooledTruth, pooledPred []int
	for _, fold := range split.Folds {
		xfFull, fidxFull, err := fold.WindowedMatrix(spec)
		if err != nil {
			return nil, err
		}
		xf, fidx := thinRows(xfFull, fidxFull, cfg.MaxEvalSamples)
		truth := fold.WindowedLabels(fidx, func(r *dataset.Record) int { return r.ActivityLabel() })
		pred := net.PredictClasses(scaler.Transform(xf))
		acc := 100 * EvaluateMultiClass(truth, pred, dataset.NumActivities).Accuracy
		res.WindowedPerFold = append(res.WindowedPerFold, acc)
		res.WindowedAvg += acc
		pooledTruth = append(pooledTruth, truth...)
		pooledPred = append(pooledPred, pred...)
	}
	res.WindowedAvg /= float64(len(split.Folds))
	res.WindowedMotionRec = EvaluateMultiClass(pooledTruth, pooledPred, dataset.NumActivities).Recall[dataset.ActivityMotion]
	return res, nil
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
// classes-1, default 5 ⇒ "4 or more") from CSI, with an MLP classifier and
// an RF regressor — the crowd-counting task of the paper's references
// [3], [12], [13] on our substrate.
func RunCounting(split *dataset.Split, classes int, cfg ExperimentConfig) (*CountingResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(split.Folds) == 0 {
		return nil, fmt.Errorf("core: split has no test folds")
	}
	if classes < 2 {
		classes = 5
	}
	train := thin(split.Train, cfg.MaxTrainSamples)
	if len(cfg.Hidden) == 0 {
		cfg.Hidden = append([]int(nil), PaperHidden...)
	}

	x, _ := train.Matrix(dataset.FeatCSI)
	scaler := linmodel.FitScaler(x)
	xs := scaler.Transform(x)
	counts := train.CountLabels(classes)

	// MLP classifier over count classes.
	y := nn.OneHot(counts, classes)
	net := nn.NewMLP(dataset.FeatCSI.Dim(), cfg.Hidden, classes, rand.New(rand.NewSource(cfg.Seed)))
	tcfg := cfg.NNTrain
	tcfg.Seed = cfg.Seed
	net.Fit(xs, y, nn.SoftmaxCE{}, tcfg)

	// RF regressor on the clamped count.
	yreg := make([]float64, len(counts))
	for i, c := range counts {
		yreg[i] = float64(c)
	}
	fcfg := cfg.RF
	fcfg.Seed = cfg.Seed
	forest := rf.FitRegressor(x, yreg, fcfg)

	res := &CountingResult{Classes: classes}
	for _, fold := range split.Folds {
		ev := thin(fold, cfg.MaxEvalSamples)
		xf, _ := ev.Matrix(dataset.FeatCSI)
		truth := ev.CountLabels(classes)

		mlpPred := net.PredictClasses(scaler.Transform(xf))
		exact, mae := countScores(truth, toFloats(mlpPred))
		res.MLPExact = append(res.MLPExact, exact)
		res.MLPMAE = append(res.MLPMAE, mae)

		raw := forest.PredictValues(xf)
		rounded := make([]float64, len(raw))
		for i, v := range raw {
			rounded[i] = math.Round(tensor.Clamp(v, 0, float64(classes-1)))
		}
		exact, mae = countScores(truth, rounded)
		res.RFExact = append(res.RFExact, exact)
		res.RFMAE = append(res.RFMAE, mae)
	}
	n := float64(len(split.Folds))
	for i := range res.MLPExact {
		res.MLPExactAvg += res.MLPExact[i]
		res.MLPMAEAvg += res.MLPMAE[i]
		res.RFExactAvg += res.RFExact[i]
		res.RFMAEAvg += res.RFMAE[i]
	}
	res.MLPExactAvg /= n
	res.MLPMAEAvg /= n
	res.RFExactAvg /= n
	res.RFMAEAvg /= n
	return res, nil
}

// thinRows stride-subsamples matrix rows (and the aligned index slice) to
// at most max rows (max<=0 keeps everything).
func thinRows(x *tensor.Matrix, idx []int, max int) (*tensor.Matrix, []int) {
	if max <= 0 || x.Rows <= max {
		return x, idx
	}
	stride := (x.Rows + max - 1) / max
	out := tensor.NewMatrix((x.Rows+stride-1)/stride, x.Cols)
	outIdx := make([]int, 0, out.Rows)
	r := 0
	for i := 0; i < x.Rows; i += stride {
		copy(out.Row(r), x.Row(i))
		outIdx = append(outIdx, idx[i])
		r++
	}
	return out, outIdx
}

func toFloats(v []int) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = float64(x)
	}
	return out
}

// countScores returns (exact-match %, MAE in persons).
func countScores(truth []int, pred []float64) (float64, float64) {
	if len(truth) == 0 {
		return 0, 0
	}
	exact := 0
	var mae float64
	for i, t := range truth {
		if int(pred[i]) == t {
			exact++
		}
		mae += math.Abs(float64(t) - pred[i])
	}
	n := float64(len(truth))
	return 100 * float64(exact) / n, mae / n
}
