package core

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/dataset"
	"repro/internal/filter"
	"repro/internal/linmodel"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// AblationPoint is one configuration in an ablation sweep with its outcome.
type AblationPoint struct {
	Name string
	// Acc is the mean accuracy (%) over the test folds.
	Acc float64
	// PerFold holds the per-fold accuracies (%).
	PerFold []float64
	// Params is the trained model's parameter count (0 for non-NN points).
	Params int
	// TrainTime is the wall-clock training duration.
	TrainTime time.Duration
}

// AblationResult is a named sweep.
type AblationResult struct {
	Dimension string
	Points    []AblationPoint
}

// runPoints evaluates a sweep's points concurrently on the shared pool,
// preserving the sweep order in the result. Each point trains its own
// models from the config seed, so the sweep is bit-identical for any
// worker count. The first error (in sweep order) aborts the result.
func runPoints(dimension string, workers, n int, eval func(i int) (AblationPoint, error)) (*AblationResult, error) {
	type slot struct {
		pt  AblationPoint
		err error
	}
	out := parallel.Map(workers, n, func(i int) slot {
		pt, err := eval(i)
		return slot{pt: pt, err: err}
	})
	res := &AblationResult{Dimension: dimension}
	for _, s := range out {
		if s.err != nil {
			return nil, s.err
		}
		res.Points = append(res.Points, s.pt)
	}
	return res, nil
}

// RunArchitectureAblation sweeps MLP hidden topologies on the CSI feature
// set, quantifying the paper's implicit design choice of 128-256-128
// ("size parameters chosen ... with special care in keeping the number of
// parameters bounded", §IV-B).
func RunArchitectureAblation(split *dataset.Split, cfg ExperimentConfig) (*AblationResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	topologies := []struct {
		name   string
		hidden []int
	}{
		{"16", []int{16}},
		{"64-32", []int{64, 32}},
		{"128-256-128 (paper)", []int{128, 256, 128}},
		{"256-256-256", []int{256, 256, 256}},
	}
	return runPoints("architecture", parallel.Workers(cfg.Workers), len(topologies), func(i int) (AblationPoint, error) {
		tp := topologies[i]
		pt, err := trainEvalMLP(split, cfg, tp.hidden, true)
		if err != nil {
			return AblationPoint{}, fmt.Errorf("core: architecture %s: %w", tp.name, err)
		}
		pt.Name = tp.name
		return pt, nil
	})
}

// RunStandardizationAblation compares training with and without feature
// standardisation — the preprocessing the paper leaves implicit but every
// pipeline on raw-amplitude CSI depends on.
func RunStandardizationAblation(split *dataset.Split, cfg ExperimentConfig) (*AblationResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	variants := []struct {
		name string
		std  bool
	}{{"standardised", true}, {"raw amplitudes", false}}
	return runPoints("standardisation", parallel.Workers(cfg.Workers), len(variants), func(i int) (AblationPoint, error) {
		pt, err := trainEvalMLP(split, cfg, cfg.Hidden, variants[i].std)
		if err != nil {
			return AblationPoint{}, err
		}
		pt.Name = variants[i].name
		return pt, nil
	})
}

// RunTrainSizeAblation sweeps the training-set size (via thinning),
// quantifying how much of the 74-hour capture the detector actually needs.
func RunTrainSizeAblation(split *dataset.Split, cfg ExperimentConfig, sizes []int) (*AblationResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(sizes) == 0 {
		sizes = []int{500, 2000, 8000, 32000}
	}
	return runPoints("training samples", parallel.Workers(cfg.Workers), len(sizes), func(i int) (AblationPoint, error) {
		c := cfg
		c.MaxTrainSamples = sizes[i]
		pt, err := trainEvalMLP(split, c, cfg.Hidden, true)
		if err != nil {
			return AblationPoint{}, err
		}
		pt.Name = fmt.Sprintf("%d", sizes[i])
		return pt, nil
	})
}

// RunEpochsAblation sweeps training epochs around the paper's 10.
func RunEpochsAblation(split *dataset.Split, cfg ExperimentConfig, epochs []int) (*AblationResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(epochs) == 0 {
		epochs = []int{1, 3, 10, 30}
	}
	return runPoints("epochs", parallel.Workers(cfg.Workers), len(epochs), func(i int) (AblationPoint, error) {
		c := cfg
		c.NNTrain.Epochs = epochs[i]
		pt, err := trainEvalMLP(split, c, cfg.Hidden, true)
		if err != nil {
			return AblationPoint{}, err
		}
		pt.Name = fmt.Sprintf("%d", epochs[i])
		return pt, nil
	})
}

// RunPreprocessAblation tests the paper's §I claim that its model needs no
// "computationally-demanding pre-processing pipelines": the same MLP is
// trained on raw amplitudes and on three classical denoising front-ends
// (moving average, Hampel, Savitzky–Golay), each applied per subcarrier
// over time to both training and evaluation folds.
func RunPreprocessAblation(split *dataset.Split, cfg ExperimentConfig) (*AblationResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(split.Folds) == 0 {
		return nil, fmt.Errorf("core: split has no test folds")
	}
	sg, err := filter.NewSavitzkyGolay(5, 2)
	if err != nil {
		return nil, err
	}
	pipelines := []filter.Filter{
		filter.Identity{},
		filter.MovingAverage{R: 3},
		filter.Hampel{R: 5, NSigma: 3},
		sg,
	}
	// One point per denoising front-end, plus a final PCA front-end point
	// (project the 64 amplitudes to 16 principal components — the common
	// dimensionality-reduction step — before the same MLP).
	return runPoints("preprocessing", parallel.Workers(cfg.Workers), len(pipelines)+1, func(i int) (AblationPoint, error) {
		if i == len(pipelines) {
			return trainEvalPCA(split, cfg, 16)
		}
		f := pipelines[i]
		apply := func(d *dataset.Dataset) *dataset.Dataset {
			if _, ok := f.(filter.Identity); ok {
				return d
			}
			return d.MapCSIColumns(func(_ int, s []float64) []float64 { return f.Apply(s) })
		}
		filtered := &dataset.Split{Train: apply(split.Train)}
		for _, fold := range split.Folds {
			filtered.Folds = append(filtered.Folds, apply(fold))
		}
		pt, err := trainEvalMLP(filtered, cfg, cfg.Hidden, true)
		if err != nil {
			return AblationPoint{}, fmt.Errorf("core: preprocessing %s: %w", f.Name(), err)
		}
		pt.Name = f.Name()
		return pt, nil
	})
}

// trainEvalPCA trains the MLP on a PCA-k projection of the CSI features.
func trainEvalPCA(split *dataset.Split, cfg ExperimentConfig, k int) (AblationPoint, error) {
	train := thin(split.Train, cfg.MaxTrainSamples)
	x, yi := train.Matrix(dataset.FeatCSI)
	scaler := linmodel.FitScaler(x)
	xs := scaler.Transform(x)
	pca, err := linmodel.FitPCA(xs, k, cfg.Seed)
	if err != nil {
		return AblationPoint{}, fmt.Errorf("core: PCA front-end: %w", err)
	}
	xp := pca.Transform(xs)
	y := tensor.NewMatrix(len(yi), 1)
	for i, v := range yi {
		y.Set(i, 0, float64(v))
	}
	hidden := cfg.Hidden
	if len(hidden) == 0 {
		hidden = PaperHidden
	}
	net := nn.NewMLP(k, hidden, 1, rand.New(rand.NewSource(cfg.Seed)))
	tcfg := cfg.NNTrain
	tcfg.Seed = cfg.Seed
	t0 := time.Now()
	net.Fit(xp, y, nn.BCEWithLogits{}, tcfg)
	pt := AblationPoint{Name: fmt.Sprintf("pca-%d", k), Params: net.NumParams(), TrainTime: time.Since(t0)}
	for _, fold := range split.Folds {
		ev := thin(fold, cfg.MaxEvalSamples)
		xf, yf := ev.Matrix(dataset.FeatCSI)
		pred := net.PredictBinary(pca.Transform(scaler.Transform(xf)))
		correct := 0
		for i := range yf {
			if pred[i] == yf[i] {
				correct++
			}
		}
		acc := 100 * float64(correct) / float64(len(yf))
		pt.PerFold = append(pt.PerFold, acc)
		pt.Acc += acc
	}
	pt.Acc /= float64(len(split.Folds))
	return pt, nil
}

// RunModelFamilyAblation compares the paper's MLP against a small 1-D CNN
// over the subcarrier axis (the other common model family in CSI sensing):
// same training budget, same CSI features.
func RunModelFamilyAblation(split *dataset.Split, cfg ExperimentConfig) (*AblationResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(split.Folds) == 0 {
		return nil, fmt.Errorf("core: split has no test folds")
	}
	return runPoints("model family", parallel.Workers(cfg.Workers), 2, func(i int) (AblationPoint, error) {
		if i == 0 {
			pt, err := trainEvalMLP(split, cfg, cfg.Hidden, true)
			if err != nil {
				return AblationPoint{}, err
			}
			pt.Name = "MLP"
			return pt, nil
		}
		pt, err := trainEvalNet(split, cfg, func(rng *rand.Rand) *nn.Network {
			return nn.NewCNN(dataset.FeatCSI.Dim(), 1, rng)
		})
		if err != nil {
			return AblationPoint{}, err
		}
		pt.Name = "CNN (conv1d)"
		return pt, nil
	})
}

// trainEvalNet trains an arbitrary network constructor on standardised CSI
// features and evaluates the fold-average accuracy.
func trainEvalNet(split *dataset.Split, cfg ExperimentConfig, build func(*rand.Rand) *nn.Network) (AblationPoint, error) {
	train := thin(split.Train, cfg.MaxTrainSamples)
	x, yi := train.Matrix(dataset.FeatCSI)
	scaler := linmodel.FitScaler(x)
	xs := scaler.Transform(x)
	y := tensor.NewMatrix(len(yi), 1)
	for i, v := range yi {
		y.Set(i, 0, float64(v))
	}
	net := build(rand.New(rand.NewSource(cfg.Seed)))
	tcfg := cfg.NNTrain
	tcfg.Seed = cfg.Seed
	t0 := time.Now()
	net.Fit(xs, y, nn.BCEWithLogits{}, tcfg)
	pt := AblationPoint{Params: net.NumParams(), TrainTime: time.Since(t0)}
	for _, fold := range split.Folds {
		ev := thin(fold, cfg.MaxEvalSamples)
		xf, yf := ev.Matrix(dataset.FeatCSI)
		pred := net.PredictBinary(scaler.Transform(xf))
		correct := 0
		for i := range yf {
			if pred[i] == yf[i] {
				correct++
			}
		}
		acc := 100 * float64(correct) / float64(len(yf))
		pt.PerFold = append(pt.PerFold, acc)
		pt.Acc += acc
	}
	pt.Acc /= float64(len(split.Folds))
	return pt, nil
}

// trainEvalMLP trains a CSI MLP under the given knobs and evaluates the
// fold-average accuracy.
func trainEvalMLP(split *dataset.Split, cfg ExperimentConfig, hidden []int, standardize bool) (AblationPoint, error) {
	if len(split.Folds) == 0 {
		return AblationPoint{}, fmt.Errorf("core: split has no test folds")
	}
	if len(hidden) == 0 {
		hidden = PaperHidden
	}
	train := thin(split.Train, cfg.MaxTrainSamples)
	x, yi := train.Matrix(dataset.FeatCSI)
	var scaler *linmodel.Scaler
	xs := x
	if standardize {
		scaler = linmodel.FitScaler(x)
		xs = scaler.Transform(x)
	}
	y := tensor.NewMatrix(len(yi), 1)
	for i, v := range yi {
		y.Set(i, 0, float64(v))
	}
	net := nn.NewMLP(dataset.FeatCSI.Dim(), hidden, 1, rand.New(rand.NewSource(cfg.Seed)))
	tcfg := cfg.NNTrain
	tcfg.Seed = cfg.Seed
	t0 := time.Now()
	net.Fit(xs, y, nn.BCEWithLogits{}, tcfg)
	pt := AblationPoint{Params: net.NumParams(), TrainTime: time.Since(t0)}

	for _, fold := range split.Folds {
		ev := thin(fold, cfg.MaxEvalSamples)
		xf, yf := ev.Matrix(dataset.FeatCSI)
		if standardize {
			xf = scaler.Transform(xf)
		}
		pred := net.PredictBinary(xf)
		correct := 0
		for i := range yf {
			if pred[i] == yf[i] {
				correct++
			}
		}
		acc := 100 * float64(correct) / float64(len(yf))
		pt.PerFold = append(pt.PerFold, acc)
		pt.Acc += acc
	}
	pt.Acc /= float64(len(split.Folds))
	return pt, nil
}
