package core

import (
	"fmt"
	"time"

	"repro/internal/dataset"
	"repro/internal/infer"
	"repro/internal/nn"
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
	Seed           int64
	// Workers bounds the goroutines the experiment grids fan out across
	// (<=0 means GOMAXPROCS). Results are bit-identical for every value —
	// each task derives its inputs from the task index and the config seed,
	// never from scheduling order; see internal/parallel.
	Workers int
}

// Validate reports whether the grid is runnable: sample caps must be
// non-negative (0 = use everything), hidden widths positive, the
// per-model hyper-parameters must each validate, and NNTrain must name no
// checkpoint — the grid fits its cells concurrently, and every cell would
// resume from and overwrite the one file.
func (c ExperimentConfig) Validate() error {
	if c.MaxTrainSamples < 0 || c.MaxEvalSamples < 0 {
		return fmt.Errorf("core: negative sample caps (train %d, eval %d)", c.MaxTrainSamples, c.MaxEvalSamples)
	}
	if c.NNTrain.Checkpoint != "" {
		return fmt.Errorf("core: experiment grids take no training checkpoint (NNTrain.Checkpoint %q)", c.NNTrain.Checkpoint)
	}
	if err := validHidden(c.Hidden); err != nil {
		return err
	}
	if err := c.NNTrain.Validate(); err != nil {
		return err
	}
	return c.RF.Validate()
}

// DefaultExperimentConfig returns the paper-default hyper-parameters.
func DefaultExperimentConfig() ExperimentConfig {
	return ExperimentConfig{
		Hidden:  append([]int(nil), PaperHidden...),
		NNTrain: nn.DefaultTrainConfig(),
		RF:      rf.DefaultForestConfig(),
		Seed:    1,
	}
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
func RunTable4(split *dataset.Split, cfg ExperimentConfig) (*Table4Result, error) {
	rows, err := runCells(split, cfg, table4Cells(cfg))
	if err != nil {
		return nil, err
	}
	nFeat, nFold := len(Table4Features), len(split.Folds)
	res := &Table4Result{
		Acc: make([][]map[dataset.FeatureSet]float64, nFold),
		Avg: make([]map[dataset.FeatureSet]float64, len(Table4Models)),
	}
	for foldI := range res.Acc {
		res.Acc[foldI] = make([]map[dataset.FeatureSet]float64, len(Table4Models))
		for mi := range res.Acc[foldI] {
			res.Acc[foldI][mi] = map[dataset.FeatureSet]float64{}
			for fi, feat := range Table4Features {
				res.Acc[foldI][mi][feat] = rows[mi*nFeat+fi].folds[foldI].acc
			}
		}
	}
	for mi := range res.Avg {
		res.Avg[mi] = map[dataset.FeatureSet]float64{}
		for fi, feat := range Table4Features {
			res.Avg[mi][feat] = stats.Mean(rows[mi*nFeat+fi].accs())
		}
	}
	return res, nil
}

// table4Cells lists the Table IV grid model-major (Table4Models order),
// feature-minor.
func table4Cells(cfg ExperimentConfig) []cell {
	var cells []cell
	for _, m := range []model{linear, forest, mlp} {
		for _, feat := range Table4Features {
			cells = append(cells, baseCell(cfg, m, feat, occupancy))
		}
	}
	return cells
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
	ols := baseCell(cfg, linear, dataset.FeatCSI, envTH)
	ols.name, ols.std = "Table V OLS", false
	net := baseCell(cfg, mlp, dataset.FeatCSI, envTH)
	net.name = "Table V MLP"
	rows, err := runCells(split, cfg, []cell{ols, net})
	if err != nil {
		return nil, err
	}
	res := &Table5Result{}
	for fi := range split.Folds {
		res.Linear = append(res.Linear, rows[0].folds[fi].reg)
		res.Neural = append(res.Neural, rows[1].folds[fi].reg)
	}
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

// RunFigure3 applies Grad-CAM to Table IV's MLP C+E cell over a
// (subsampled) batch of evaluation records, reproducing Figure 3.
func RunFigure3(split *dataset.Split, cfg ExperimentConfig) (*Figure3Result, error) {
	rows, err := runCells(split, cfg, []cell{baseCell(cfg, mlp, dataset.FeatCSIEnv, occupancy)})
	if err != nil {
		return nil, err
	}
	det := &Detector{Net: rows[0].net, Scaler: rows[0].scaler, Features: dataset.FeatCSIEnv}
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
	batch := pool.Thin(maxBatch)
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
	thinned := d.Thin(maxSamples)
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
	c := baseCell(cfg, forest, dataset.FeatTime, occupancy)
	c.name, c.trees = "time-only", rf.ForestConfig{NumTrees: 5, MaxDepth: 6, MinLeaf: 5, MTry: 1, Seed: cfg.Seed}
	rows, err := runCells(split, cfg, []cell{c})
	if err != nil {
		return nil, err
	}
	perFold := rows[0].accs()
	return &TimeOnlyResult{PerFold: perFold, Avg: stats.Mean(perFold)}, nil
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
