package core

import (
	"fmt"
	"time"

	"repro/internal/dataset"
	"repro/internal/filter"
	"repro/internal/stats"
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

// AblationDims names the sweeps RunAblation runs, in print order:
//
//	arch     MLP hidden topologies — the paper's implicit choice of
//	         128-256-128 ("size parameters chosen ... with special care in
//	         keeping the number of parameters bounded", §IV-B)
//	std      feature standardisation on and off, the preprocessing the
//	         paper leaves implicit
//	size     training-set size, how much of the 74-hour capture the
//	         detector needs
//	epochs   training epochs around the paper's 10
//	family   the MLP against a small 1-D CNN over the subcarrier axis
//	preproc  the §I claim that the model needs no "computationally-demanding
//	         pre-processing pipelines": raw amplitudes against moving
//	         average, Hampel and Savitzky–Golay denoising (per subcarrier,
//	         over time, on training and test folds) and a PCA-16 front end
var AblationDims = []string{"arch", "std", "size", "epochs", "family", "preproc"}

// RunAblation runs the named sweeps (AblationDims) on the CSI occupancy
// detector as one grid, so a cell two sweeps share — the Table IV MLP is in
// every one — trains once. Results come back in the order named.
func RunAblation(split *dataset.Split, cfg ExperimentConfig, dims ...string) ([]*AblationResult, error) {
	var cells []cell
	res := make([]*AblationResult, len(dims))
	sizes := make([]int, len(dims))
	for i, dim := range dims {
		title, cs, err := ablationCells(dim, cfg)
		if err != nil {
			return nil, err
		}
		res[i], sizes[i] = &AblationResult{Dimension: title}, len(cs)
		cells = append(cells, cs...)
	}
	rows, err := runCells(split, cfg, cells)
	if err != nil {
		return nil, err
	}
	k := 0
	for i, r := range res {
		for ; len(r.Points) < sizes[i]; k++ {
			perFold := rows[k].accs()
			r.Points = append(r.Points, AblationPoint{
				Name: cells[k].name, Acc: stats.Mean(perFold), PerFold: perFold,
				Params: rows[k].params, TrainTime: rows[k].trainTime,
			})
		}
	}
	return res, nil
}

// ablationCells returns a sweep's title and its cells: each the Table IV
// MLP on CSI with one knob turned.
func ablationCells(dim string, cfg ExperimentConfig) (string, []cell, error) {
	base := baseCell(cfg, mlp, dataset.FeatCSI, occupancy)
	var cells []cell
	add := func(name string, turn func(c *cell)) {
		c := base
		c.name = name
		turn(&c)
		cells = append(cells, c)
	}
	switch dim {
	case "arch":
		for _, tp := range []struct {
			name   string
			hidden []int
		}{
			{"16", []int{16}},
			{"64-32", []int{64, 32}},
			{"128-256-128 (paper)", PaperHidden},
			{"256-256-256", []int{256, 256, 256}},
		} {
			add(tp.name, func(c *cell) { c.hidden = tp.hidden })
		}
		return "architecture", cells, nil
	case "std":
		add("standardised", func(*cell) {})
		add("raw amplitudes", func(c *cell) { c.std = false })
		return "standardisation", cells, nil
	case "size":
		for _, n := range []int{500, 2000, 8000, 32000} {
			add(fmt.Sprint(n), func(c *cell) { c.maxTrain = n })
		}
		return "training samples", cells, nil
	case "epochs":
		for _, n := range []int{1, 3, 10, 30} {
			add(fmt.Sprint(n), func(c *cell) { c.train.Epochs = n })
		}
		return "epochs", cells, nil
	case "family":
		add("MLP", func(*cell) {})
		add("CNN (conv1d)", func(c *cell) { c.model, c.hidden = cnn, nil })
		return "model family", cells, nil
	case "preproc":
		sg, err := filter.NewSavitzkyGolay(5, 2)
		if err != nil {
			return "", nil, err
		}
		for _, f := range []filter.Filter{filter.Identity{}, filter.MovingAverage{R: 3}, filter.Hampel{R: 5, NSigma: 3}, sg} {
			add(f.Name(), func(c *cell) {
				if _, raw := f.(filter.Identity); !raw {
					c.filter = f
				}
			})
		}
		// Project the 64 amplitudes to 16 principal components — the
		// common dimensionality-reduction step — before the same MLP.
		add("pca-16", func(c *cell) { c.pca = 16 })
		return "preprocessing", cells, nil
	}
	return "", nil, fmt.Errorf("core: unknown ablation %q (want one of %v)", dim, AblationDims)
}
