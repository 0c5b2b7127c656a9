package core

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/dataset"
	"repro/internal/infer"
	"repro/internal/linmodel"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/rf"
	"repro/internal/stats"
	"repro/internal/tensor"
	"repro/internal/xai"
)

// ModelName identifies the three Table IV model families.
type ModelName string

// The Table IV models.
const (
	ModelLogistic ModelName = "Logistic Regressor"
	ModelRF       ModelName = "Random Forest"
	ModelMLP      ModelName = "MLP"
)

// Table4Models lists the models in the paper's column order.
var Table4Models = []ModelName{ModelLogistic, ModelRF, ModelMLP}

// Table4Features lists the feature subsets in the paper's column order.
var Table4Features = []dataset.FeatureSet{dataset.FeatCSI, dataset.FeatEnv, dataset.FeatCSIEnv}

// ExperimentConfig bundles the scale and hyper-parameter knobs shared by
// the experiment runners. Zero values take paper defaults.
type ExperimentConfig struct {
	// MaxTrainSamples caps the training set via deterministic striding
	// (0 = use everything). The paper trains on 3.75M rows; a pure-Go
	// reproduction thins the same distribution instead.
	MaxTrainSamples int
	// MaxEvalSamples caps each evaluation fold the same way (0 = all).
	MaxEvalSamples int
	Hidden         []int
	NNTrain        nn.TrainConfig
	RF             rf.ForestConfig
	Logistic       linmodel.LogisticConfig
	Seed           int64
	// Workers bounds the goroutines the experiment grids fan out across
	// (<=0 means GOMAXPROCS). Results are bit-identical for every value —
	// each task derives its inputs from the task index and the config seed,
	// never from scheduling order; see internal/parallel.
	Workers int
}

// Validate reports whether the grid is runnable: sample caps must be
// non-negative (0 = use everything), hidden widths positive, and the
// per-model hyper-parameters must each validate.
func (c ExperimentConfig) Validate() error {
	if c.MaxTrainSamples < 0 || c.MaxEvalSamples < 0 {
		return fmt.Errorf("core: negative sample caps (train %d, eval %d)", c.MaxTrainSamples, c.MaxEvalSamples)
	}
	if err := validHidden(c.Hidden); err != nil {
		return err
	}
	if err := c.NNTrain.Validate(); err != nil {
		return err
	}
	if err := c.RF.Validate(); err != nil {
		return err
	}
	return c.Logistic.Validate()
}

// DefaultExperimentConfig returns the paper-default hyper-parameters.
func DefaultExperimentConfig() ExperimentConfig {
	return ExperimentConfig{
		Hidden:   append([]int(nil), PaperHidden...),
		NNTrain:  nn.DefaultTrainConfig(),
		RF:       rf.DefaultForestConfig(),
		Logistic: linmodel.DefaultLogisticConfig(),
		Seed:     1,
	}
}

// thin returns a stride-subsampled view with at most max records (max<=0
// keeps everything). Striding preserves the temporal spread, unlike a
// prefix cut which would drop whole regimes.
func thin(d *dataset.Dataset, max int) *dataset.Dataset {
	if max <= 0 || d.Len() <= max {
		return d
	}
	stride := (d.Len() + max - 1) / max
	out := &dataset.Dataset{Records: make([]dataset.Record, 0, max)}
	for i := 0; i < d.Len(); i += stride {
		out.Records = append(out.Records, d.Records[i])
	}
	return out
}

// Table4Result holds occupancy accuracy per fold / model / feature subset,
// plus the per-column averages (the paper's "Avg." row), in percent.
type Table4Result struct {
	// Acc[fold][model][feature] with fold 0..4 = paper folds 1..5.
	Acc [][]map[dataset.FeatureSet]float64
	Avg []map[dataset.FeatureSet]float64 // per model
}

// RunTable4 reproduces Table IV: trains Logistic Regression, Random Forest
// and the MLP on each of the three feature subsets on the training fold and
// evaluates each of the five test folds. Models are trained exactly once —
// fold evaluation never re-trains (§V-B).
//
// The grid runs in three parallel stages on cfg.Workers goroutines: feature
// preparation (one task per subset), cell training (one task per
// model×subset combination), and fold evaluation (one task per
// subset×fold, scoring all three trained models against a shared design
// matrix). Every task derives its inputs from its index and cfg alone, so
// the result is bit-identical to the sequential run for any worker count.
func RunTable4(split *dataset.Split, cfg ExperimentConfig) (*Table4Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(split.Folds) == 0 {
		return nil, fmt.Errorf("core: split has no test folds")
	}
	train := thin(split.Train, cfg.MaxTrainSamples)
	if len(cfg.Hidden) == 0 {
		cfg.Hidden = append([]int(nil), PaperHidden...)
	}
	workers := parallel.Workers(cfg.Workers)
	nFeat, nModel, nFold := len(Table4Features), len(Table4Models), len(split.Folds)

	// Stage 1: per-subset design matrices and scalers.
	type featData struct {
		x, xStd *tensor.Matrix
		y       []int
		yF      *tensor.Matrix
		scaler  *linmodel.Scaler
	}
	prep := parallel.Map(workers, nFeat, func(i int) featData {
		x, y := train.Matrix(Table4Features[i])
		scaler := linmodel.FitScaler(x)
		yF := tensor.NewMatrix(len(y), 1)
		for j, v := range y {
			yF.Set(j, 0, float64(v))
		}
		return featData{x: x, xStd: scaler.Transform(x), y: y, yF: yF, scaler: scaler}
	})

	// Stage 2: the nine cells train concurrently. Each task fills only its
	// own slot with a prediction closure over the trained model; all three
	// closures are inference-only and safe to call from many goroutines.
	preds := make([]func(xf, xfStd *tensor.Matrix) []int, nModel*nFeat)
	parallel.ForEach(workers, nModel*nFeat, func(ci int) {
		mi, fi := ci/nFeat, ci%nFeat
		d := prep[fi]
		switch Table4Models[mi] {
		case ModelLogistic:
			logit := &linmodel.Logistic{}
			lcfg := cfg.Logistic
			lcfg.Seed = cfg.Seed
			logit.Fit(d.xStd, d.y, lcfg)
			preds[ci] = func(_, xfStd *tensor.Matrix) []int { return logit.Predict(xfStd) }
		case ModelRF:
			rfcfg := cfg.RF
			rfcfg.Seed = cfg.Seed
			forest := rf.FitClassifier(d.x, d.y, rfcfg)
			preds[ci] = func(xf, _ *tensor.Matrix) []int { return forest.Predict(xf) }
		case ModelMLP:
			tcfg := cfg.NNTrain
			tcfg.Seed = cfg.Seed
			net := nn.NewMLP(Table4Features[fi].Dim(), cfg.Hidden, 1, rand.New(rand.NewSource(cfg.Seed)))
			net.Fit(d.xStd, d.yF, nn.BCEWithLogits{}, tcfg)
			preds[ci] = func(_, xfStd *tensor.Matrix) []int { return net.PredictBinary(xfStd) }
		}
	})

	// Stage 3: evaluation fans out per (subset, fold) into a flat array —
	// the result maps are filled serially afterwards because Go maps do not
	// tolerate concurrent writes.
	acc := make([]float64, nFold*nModel*nFeat)
	parallel.ForEach(workers, nFeat*nFold, func(ti int) {
		fi, foldI := ti/nFold, ti%nFold
		ev := thin(split.Folds[foldI], cfg.MaxEvalSamples)
		xf, yf := ev.Matrix(Table4Features[fi])
		xfStd := prep[fi].scaler.Transform(xf)
		for mi := 0; mi < nModel; mi++ {
			p := preds[mi*nFeat+fi](xf, xfStd)
			acc[(foldI*nModel+mi)*nFeat+fi] = 100 * stats.Accuracy(yf, p)
		}
	})

	res := &Table4Result{
		Acc: make([][]map[dataset.FeatureSet]float64, nFold),
		Avg: make([]map[dataset.FeatureSet]float64, nModel),
	}
	for foldI := range res.Acc {
		res.Acc[foldI] = make([]map[dataset.FeatureSet]float64, nModel)
		for mi := range res.Acc[foldI] {
			res.Acc[foldI][mi] = map[dataset.FeatureSet]float64{}
			for fi, feat := range Table4Features {
				res.Acc[foldI][mi][feat] = acc[(foldI*nModel+mi)*nFeat+fi]
			}
		}
	}
	for mi := range res.Avg {
		res.Avg[mi] = map[dataset.FeatureSet]float64{}
		for fi, feat := range Table4Features {
			var s float64
			for foldI := 0; foldI < nFold; foldI++ {
				s += acc[(foldI*nModel+mi)*nFeat+fi]
			}
			res.Avg[mi][feat] = s / float64(nFold)
		}
	}
	return res, nil
}

// RegScores is one cell pair of Table V for one fold: MAE and MAPE for the
// temperature (T) and humidity (H) targets.
type RegScores struct {
	MAET, MAEH   float64
	MAPET, MAPEH float64
}

// Table5Result holds the Table V grid: per fold, linear vs neural scores.
type Table5Result struct {
	Linear []RegScores // per fold
	Neural []RegScores
	AvgLin RegScores
	AvgNN  RegScores
}

// RunTable5 reproduces Table V: ordinary least squares and the MLP both
// regress temperature and humidity from the 64 CSI amplitudes, trained on
// the training fold, evaluated per test fold.
func RunTable5(split *dataset.Split, cfg ExperimentConfig) (*Table5Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(split.Folds) == 0 {
		return nil, fmt.Errorf("core: split has no test folds")
	}
	train := thin(split.Train, cfg.MaxTrainSamples)
	if len(cfg.Hidden) == 0 {
		cfg.Hidden = append([]int(nil), PaperHidden...)
	}
	workers := parallel.Workers(cfg.Workers)

	// The two regressors train concurrently; errors are kept per-slot.
	var lin *linmodel.Linear
	var reg *EnvRegressor
	var linErr, regErr error
	parallel.ForEach(workers, 2, func(i int) {
		if i == 0 {
			// Linear: OLS on raw CSI, tiny ridge for collinear subcarriers.
			xTrain, _ := train.Matrix(dataset.FeatCSI)
			lin, linErr = linmodel.FitLinear(xTrain, train.EnvTargets(), 1e-8)
			return
		}
		// Neural: the shared EnvRegressor.
		ecfg := EnvRegressorConfig{Hidden: cfg.Hidden, Train: cfg.NNTrain, Seed: cfg.Seed}
		ecfg.Train.Seed = cfg.Seed
		reg, regErr = TrainEnvRegressor(train, ecfg)
	})
	if linErr != nil {
		return nil, fmt.Errorf("core: Table V OLS: %w", linErr)
	}
	if regErr != nil {
		return nil, regErr
	}

	res := &Table5Result{
		Linear: make([]RegScores, len(split.Folds)),
		Neural: make([]RegScores, len(split.Folds)),
	}
	parallel.ForEach(workers, len(split.Folds), func(fi int) {
		ev := thin(split.Folds[fi], cfg.MaxEvalSamples)
		xf, _ := ev.Matrix(dataset.FeatCSI)
		tTrue, _ := ev.Column("temp")
		hTrue, _ := ev.Column("humidity")

		linPred := lin.Predict(xf)
		res.Linear[fi] = RegScores{
			MAET:  stats.MAE(tTrue, linPred[0]),
			MAEH:  stats.MAE(hTrue, linPred[1]),
			MAPET: stats.MAPE(tTrue, linPred[0]),
			MAPEH: stats.MAPE(hTrue, linPred[1]),
		}

		tPred, hPred := reg.Predict(ev)
		res.Neural[fi] = RegScores{
			MAET:  stats.MAE(tTrue, tPred),
			MAEH:  stats.MAE(hTrue, hPred),
			MAPET: stats.MAPE(tTrue, tPred),
			MAPEH: stats.MAPE(hTrue, hPred),
		}
	})
	res.AvgLin = avgScores(res.Linear)
	res.AvgNN = avgScores(res.Neural)
	return res, nil
}

func avgScores(s []RegScores) RegScores {
	var a RegScores
	if len(s) == 0 {
		return a
	}
	for _, v := range s {
		a.MAET += v.MAET
		a.MAEH += v.MAEH
		a.MAPET += v.MAPET
		a.MAPEH += v.MAPEH
	}
	n := float64(len(s))
	a.MAET /= n
	a.MAEH /= n
	a.MAPET /= n
	a.MAPEH /= n
	return a
}

// Figure3Result is the Grad-CAM importance profile over the 66 C+E inputs.
type Figure3Result struct {
	// Importance[0..63] are the CSI subcarriers, [64] temperature,
	// [65] humidity — the x-axis of Figure 3.
	Importance []float64
	// CSIMass and EnvMass are the absolute-importance shares.
	CSIMass, EnvMass float64
	// TopSubcarriers are the five most important CSI inputs.
	TopSubcarriers []int
}

// RunFigure3 trains the C+E detector and applies Grad-CAM over a
// (subsampled) batch of evaluation records, reproducing Figure 3.
func RunFigure3(split *dataset.Split, cfg ExperimentConfig) (*Figure3Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	dcfg := DefaultDetectorConfig()
	dcfg.Features = dataset.FeatCSIEnv
	if len(cfg.Hidden) > 0 {
		dcfg.Hidden = cfg.Hidden
	}
	dcfg.Train = cfg.NNTrain
	dcfg.Seed = cfg.Seed
	det, err := TrainDetector(thin(split.Train, cfg.MaxTrainSamples), dcfg)
	if err != nil {
		return nil, err
	}
	return ExplainDetector(det, split, cfg.MaxEvalSamples)
}

// ExplainDetector applies Grad-CAM to an already-trained C+E detector.
func ExplainDetector(det *Detector, split *dataset.Split, maxBatch int) (*Figure3Result, error) {
	if det.Features != dataset.FeatCSIEnv {
		return nil, fmt.Errorf("core: Figure 3 needs the C+E detector, got %v", det.Features)
	}
	// Explanation batch: all test folds pooled, thinned.
	pool := &dataset.Dataset{}
	for _, f := range split.Folds {
		pool.Records = append(pool.Records, f.Records...)
	}
	if maxBatch <= 0 {
		maxBatch = 2048
	}
	batch := thin(pool, maxBatch)
	x, _ := batch.Matrix(dataset.FeatCSIEnv)
	xs := det.Scaler.Transform(x)
	cam, err := xai.GradCAM(det.Net, xs, 1)
	if err != nil {
		return nil, err
	}
	res := &Figure3Result{
		Importance:     cam.InputImportance,
		CSIMass:        cam.MassFraction(0, 64),
		EnvMass:        cam.MassFraction(64, 66),
		TopSubcarriers: nil,
	}
	for _, idx := range cam.TopFeatures(len(cam.InputImportance)) {
		if idx < 64 {
			res.TopSubcarriers = append(res.TopSubcarriers, idx)
			if len(res.TopSubcarriers) == 5 {
				break
			}
		}
	}
	return res, nil
}

// ProfileResult carries the §V-A data-profiling numbers.
type ProfileResult struct {
	// Pearson correlations reported in the text.
	TempHum, TempOcc, HumOcc float64
	TimeTemp, TimeHum        float64
	// SubcarrierEnvCorrMax is the strongest |ρ| between any subcarrier
	// and temperature or humidity.
	SubcarrierEnvCorrMax float64
	// ADF stationarity verdicts for the key series.
	TempStationary, HumStationary, CSIStationary bool
	ADFTemp, ADFHum, ADFCSI                      stats.ADFResult
	// KPSS confirmatory tests (null: stationary).
	KPSSTemp, KPSSHum, KPSSCSI stats.KPSSResult
}

// RunProfile reproduces the §V-A time-series analysis on the full dataset:
// the Pearson correlation structure and the ADF stationarity verdicts.
// The CSI amplitudes reject the unit root decisively, like the paper's.
// The synthetic temperature/humidity series include the scripted fold-4
// outage and fold-5 boost regimes, which a unit-root test correctly reads
// as trending — their verdicts are reported as measured and the deviation
// from the paper's blanket "all stationary" claim is documented in
// EXPERIMENTS.md.
func RunProfile(d *dataset.Dataset, maxSamples int) (*ProfileResult, error) {
	if d.Len() < 50 {
		return nil, fmt.Errorf("core: dataset too small to profile (%d records)", d.Len())
	}
	thinned := thin(d, maxSamples)
	temp, _ := thinned.Column("temp")
	hum, _ := thinned.Column("humidity")
	occ, _ := thinned.Column("occupancy")
	tod, _ := thinned.Column("time")

	res := &ProfileResult{
		TempHum:  stats.Pearson(temp, hum),
		TempOcc:  stats.Pearson(temp, occ),
		HumOcc:   stats.Pearson(hum, occ),
		TimeTemp: stats.Pearson(tod, temp),
		TimeHum:  stats.Pearson(tod, hum),
	}
	for k := 0; k < 64; k += 4 {
		col, err := thinned.Column(fmt.Sprintf("a%d", k))
		if err != nil {
			return nil, err
		}
		for _, env := range [][]float64{temp, hum} {
			if r := abs(stats.Pearson(col, env)); r > res.SubcarrierEnvCorrMax {
				res.SubcarrierEnvCorrMax = r
			}
		}
	}

	// ADF runs on the fine-grained series, like the paper's profiling of
	// the 20 Hz capture: at sampling intervals far below the thermal time
	// constants, sensor noise dominates sample-to-sample variation and the
	// unit-root null is rejected decisively for every series.
	var err error
	if res.ADFTemp, err = stats.ADF(temp, adfLags(len(temp))); err != nil {
		return nil, err
	}
	if res.ADFHum, err = stats.ADF(hum, adfLags(len(hum))); err != nil {
		return nil, err
	}
	a20, _ := thinned.Column("a20")
	if res.ADFCSI, err = stats.ADF(a20, adfLags(len(a20))); err != nil {
		return nil, err
	}
	if res.KPSSTemp, err = stats.KPSS(temp, -1); err != nil {
		return nil, err
	}
	if res.KPSSHum, err = stats.KPSS(hum, -1); err != nil {
		return nil, err
	}
	if res.KPSSCSI, err = stats.KPSS(a20, -1); err != nil {
		return nil, err
	}
	res.TempStationary = res.ADFTemp.Stationary()
	res.HumStationary = res.ADFHum.Stationary()
	res.CSIStationary = res.ADFCSI.Stationary()
	return res, nil
}

func adfLags(n int) int {
	l := n / 50
	if l < 1 {
		l = 1
	}
	if l > 12 {
		l = 12
	}
	return l
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// TimeOnlyResult is the §V-B ablation: accuracy using only time of day.
type TimeOnlyResult struct {
	PerFold []float64 // percent
	Avg     float64
}

// RunTimeOnly trains a compact tree ensemble on the seconds-of-day feature
// alone (the paper reports 89.3%, below the CSI models). A tree is the
// natural model here: "occupied during working hours" is an interval rule a
// single linear threshold on the clock cannot express.
func RunTimeOnly(split *dataset.Split, cfg ExperimentConfig) (*TimeOnlyResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	train := thin(split.Train, cfg.MaxTrainSamples)
	x, y := train.Matrix(dataset.FeatTime)
	fcfg := rf.ForestConfig{NumTrees: 5, MaxDepth: 6, MinLeaf: 5, MTry: 1, Seed: cfg.Seed}
	forest := rf.FitClassifier(x, y, fcfg)
	res := &TimeOnlyResult{}
	for _, fold := range split.Folds {
		ev := thin(fold, cfg.MaxEvalSamples)
		xf, yf := ev.Matrix(dataset.FeatTime)
		acc := 100 * stats.Accuracy(yf, forest.Predict(xf))
		res.PerFold = append(res.PerFold, acc)
		res.Avg += acc
	}
	res.Avg /= float64(len(res.PerFold))
	return res, nil
}

// FootprintResult reproduces the §IV-B deployment numbers: parameter count,
// serialised model size, and single-sample inference latency. SizeBytes is
// the float32 deployment format by default; with int8 quantisation on
// (RunFootprintAt) it is the quantised artefact size — one byte per weight
// plus float32 biases and one scale per layer.
type FootprintResult struct {
	Params             int
	SizeBytes          int
	SizeKiB            float64
	Precision          string // "f64"/"f32" (float32 deployment format) or "int8"
	InferencePerSample time.Duration
}

// RunFootprint measures the detector's deployment footprint in the default
// float32 deployment format (Table-compatible: SizeBytes == Params×4).
func RunFootprint(det *Detector, iters int) *FootprintResult {
	res, err := RunFootprintAt(det, iters, "")
	if err != nil {
		// "" always parses; only a non-Dense stack can fail, and every
		// detector this repo trains is a Dense stack.
		panic(err)
	}
	return res
}

// RunFootprintAt measures the deployment footprint at a given serving
// precision. f64 and f32 both ship the float32 deployment format, so they
// report the same size; int8 reports the quantised size. The latency number
// stays the reference (float64 allocating forward) path in every case —
// Table IV/V and the §IV-B latency claim are reproduced unchanged.
func RunFootprintAt(det *Detector, iters int, precision string) (*FootprintResult, error) {
	if iters <= 0 {
		iters = 1000
	}
	prec, err := infer.ParsePrecision(precision)
	if err != nil {
		return nil, err
	}
	res := &FootprintResult{
		Params:    det.Net.NumParams(),
		Precision: string(prec),
	}
	if prec == infer.PrecisionI8 {
		nq, err := nn.Lower(det.Net, nn.I8)
		if err != nil {
			return nil, err
		}
		res.SizeBytes = nq.SizeBytes()
	} else {
		res.SizeBytes = det.Net.SizeBytes(4)
	}
	res.SizeKiB = float64(res.SizeBytes) / 1024
	x := tensor.NewMatrix(1, det.Features.Dim())
	for j := range x.Data {
		x.Data[j] = 0.1 * float64(j%7)
	}
	start := time.Now()
	for i := 0; i < iters; i++ {
		det.Net.PredictProbs(x)
	}
	res.InferencePerSample = time.Since(start) / time.Duration(iters)
	return res, nil
}
