package core

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/dataset"
	"repro/internal/filter"
	"repro/internal/linmodel"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/rf"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// Every experiment grid — Table IV, Table V, the time-only ablation, the
// design sweeps and the extensions — is a list of cells handed to runCells,
// the one place models are trained on the training fold and scored on the
// test folds.

// task is what a cell predicts.
type task int

const (
	occupancy task = iota // occupied or empty: accuracy
	activity              // empty / static / motion: accuracy and pooled recall
	count                 // occupants, clamped at countClasses-1: exact match and MAE
	envTH                 // temperature and humidity regression: MAE and MAPE
)

// countClasses clamps the occupant count at "4 or more".
const countClasses = 5

func (t task) classes() int {
	switch t {
	case activity:
		return dataset.NumActivities
	case count:
		return countClasses
	}
	return 2
}

func (t task) label(r *dataset.Record) int {
	switch t {
	case activity:
		return r.ActivityLabel()
	case count:
		return r.CountLabel(countClasses)
	}
	return r.Label()
}

// model is a cell's model family.
type model int

const (
	linear model = iota // logistic regression; least squares for envTH
	forest              // random forest (one forest per class for activity, a regressor for count)
	mlp                 // dense network; for envTH a two-output regressor
	cnn                 // 1-D convolution over the subcarrier axis
)

// cell is one model of an experiment grid: its inputs, its model and how it
// is fit. Every field but name is its identity — runCells trains two cells
// that agree on all of them once.
type cell struct {
	name string

	feat   dataset.FeatureSet
	window int           // > 0: windowed (mean, std) CSI features over this many samples
	filter filter.Filter // per-subcarrier denoising of the full-rate series; nil = raw
	task   task

	model  model
	hidden []int           // mlp topology
	trees  rf.ForestConfig // forest hyper-parameters and seed

	maxTrain int            // training cap, thinned by stride (0 = all)
	std      bool           // feed the model standardised inputs
	pca      int            // > 0: project the standardised inputs onto this many components
	train    nn.TrainConfig // network epochs and shuffle seed
	seed     int64          // network init and PCA seed
}

// row is one cell's outcome.
type row struct {
	folds     []score          // per test fold, in split order
	pooled    MultiClassResult // activity: every fold's predictions pooled
	params    int              // network parameters, 4 bytes each at float32 (0 for linear and forest cells)
	trainTime time.Duration
	net       *nn.Network      // the trained network, for callers that reuse it
	scaler    *linmodel.Scaler // the standardiser fit on the training rows
}

// accs is the row's per-fold accuracy (exact-match % for count).
func (r row) accs() []float64 {
	out := make([]float64, len(r.folds))
	for i, f := range r.folds {
		out[i] = f.acc
	}
	return out
}

// score is one cell's figures on one fold.
type score struct {
	acc float64   // accuracy % (occupancy, activity), exact-match % (count)
	mae float64   // count: mean absolute error in persons
	reg RegScores // envTH
}

// inputs is one (filtered, thinned) design matrix, raw and standardised
// with the training rows' scaler, with the record each row is labelled by.
type inputs struct {
	recs   []*dataset.Record
	x, xs  *tensor.Matrix
	scaler *linmodel.Scaler
}

// fitted is a trained cell.
type fitted struct {
	classes func(x *tensor.Matrix) []int                 // classification tasks
	env     func(x *tensor.Matrix) (temp, hum []float64) // envTH, from the cell's input
	net     *nn.Network
}

// ids numbers keys densely in first-seen order.
type ids map[string]int

func (m ids) id(key string) int {
	i, ok := m[key]
	if !ok {
		i = len(m)
		m[key] = i
	}
	return i
}

// runCells trains every cell on split.Train and scores it on each test
// fold, one row per cell in order. It filters each split once, builds each
// (filter, features, window, cap) design matrix and its scaler once, trains
// each distinct cell once, and fans every stage out over cfg.Workers
// goroutines; every task derives its inputs from its index and the cell's
// seeds alone, so the rows are bit-identical for any worker count.
func runCells(split *dataset.Split, cfg ExperimentConfig, cells []cell) ([]row, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(split.Folds) == 0 {
		return nil, fmt.Errorf("core: split has no test folds")
	}
	workers := parallel.Workers(cfg.Workers)
	nFold := len(split.Folds)

	// Number the distinct cells, and the distinct designs and filters they
	// read.
	cellIDs, designIDs, filterIDs := ids{}, ids{}, ids{}
	var uniq []cell
	var designs, designOf []int // per design: a cell reading it; per cell: its design
	var filters []filter.Filter
	var filterOf []int // per design
	of := make([]int, len(cells))
	for i, c := range cells {
		key := c
		key.name = ""
		if of[i] = cellIDs.id(fmt.Sprintf("%v", key)); of[i] < len(uniq) {
			continue
		}
		uniq = append(uniq, c)
		fname := "raw"
		if c.filter != nil {
			fname = c.filter.Name()
		}
		d := designIDs.id(fmt.Sprintf("%s/%d/%d/%d", fname, c.feat, c.window, c.maxTrain))
		if d == len(designs) {
			designs = append(designs, len(uniq)-1)
			fi := filterIDs.id(fname)
			if fi == len(filters) {
				filters = append(filters, c.filter)
			}
			filterOf = append(filterOf, fi)
		}
		designOf = append(designOf, d)
	}

	// Stage 1: each filter over the full-rate training set and folds
	// (denoising needs the unthinned series).
	all := append([]*dataset.Dataset{split.Train}, split.Folds...)
	sources := parallel.Map(workers, len(filters)*len(all), func(ti int) *dataset.Dataset {
		d := all[ti%len(all)]
		if f := filters[ti/len(all)]; f != nil {
			return d.MapCSIColumns(func(_ int, s []float64) []float64 { return f.Apply(s) })
		}
		return d
	})
	source := func(d, i int) *dataset.Dataset { return sources[filterOf[d]*len(all)+i] } // i: 0 train, 1+fold

	// Stage 2: the training designs and their scalers.
	train := make([]inputs, len(designs))
	errs := make([]error, len(designs))
	parallel.ForEach(workers, len(designs), func(d int) {
		c := uniq[designs[d]]
		train[d], errs[d] = buildInputs(source(d, 0), c, c.maxTrain, nil)
	})
	if err := firstErr(errs); err != nil {
		return nil, err
	}

	// Stage 3: every design's test folds, standardised with its scaler.
	evals := make([]inputs, len(designs)*nFold)
	errs = make([]error, len(evals))
	parallel.ForEach(workers, len(evals), func(ti int) {
		d, fold := ti/nFold, ti%nFold
		evals[ti], errs[ti] = buildInputs(source(d, 1+fold), uniq[designs[d]], cfg.MaxEvalSamples, train[d].scaler)
	})
	if err := firstErr(errs); err != nil {
		return nil, err
	}

	// Stage 4: the distinct cells train concurrently.
	type trained struct {
		fitted
		took time.Duration
		err  error
	}
	fits := parallel.Map(workers, len(uniq), func(ci int) trained {
		t0 := time.Now()
		f, err := uniq[ci].fit(&train[designOf[ci]])
		return trained{f, time.Since(t0), err}
	})
	rows := make([]row, len(uniq))
	for ci, f := range fits {
		if f.err != nil {
			return nil, fmt.Errorf("core: %s: %w", uniq[ci].name, f.err)
		}
		rows[ci] = row{folds: make([]score, nFold), trainTime: f.took, net: f.net, scaler: train[designOf[ci]].scaler}
		if f.net != nil {
			rows[ci].params = f.net.NumParams()
		}
	}

	// Stage 5: every (cell, fold) scores concurrently.
	truth := make([][]int, len(uniq)*nFold)
	pred := make([][]int, len(uniq)*nFold)
	parallel.ForEach(workers, len(uniq)*nFold, func(ti int) {
		ci, fold := ti/nFold, ti%nFold
		c, f, in := uniq[ci], fits[ci], &evals[designOf[ci]*nFold+fold]
		s := &rows[ci].folds[fold]
		if c.task == envTH {
			t, h := f.env(c.input(in.x, in.xs))
			tTrue, hTrue := make([]float64, len(in.recs)), make([]float64, len(in.recs))
			for i, r := range in.recs {
				tTrue[i], hTrue[i] = r.Temp, r.Humidity
			}
			s.reg = RegScores{
				MAET: stats.MAE(tTrue, t), MAEH: stats.MAE(hTrue, h),
				MAPET: stats.MAPE(tTrue, t), MAPEH: stats.MAPE(hTrue, h),
			}
			return
		}
		truth[ti], pred[ti] = labels(in.recs, c.task), f.classes(c.input(in.x, in.xs))
		if c.task == count {
			s.acc, s.mae = countScores(truth[ti], pred[ti])
		} else {
			s.acc = 100 * stats.Accuracy(truth[ti], pred[ti])
		}
	})
	for ci, c := range uniq {
		if c.task != activity {
			continue
		}
		var y, p []int
		for fold := 0; fold < nFold; fold++ {
			y = append(y, truth[ci*nFold+fold]...)
			p = append(p, pred[ci*nFold+fold]...)
		}
		rows[ci].pooled = EvaluateMultiClass(y, p, c.task.classes())
	}

	out := make([]row, len(cells))
	for i := range cells {
		out[i] = rows[of[i]]
	}
	return out, nil
}

func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// buildInputs thins src to at most max rows and extracts c's features,
// standardised with scaler (nil: one fit on these rows). Windows are
// computed on the full-rate series (thinning first would stretch a
// one-second window over minutes), then their rows are thinned.
func buildInputs(src *dataset.Dataset, c cell, max int, scaler *linmodel.Scaler) (inputs, error) {
	var in inputs
	if c.window == 0 {
		data := src.Thin(max)
		in.x, _ = data.Matrix(c.feat)
		for i := range data.Records {
			in.recs = append(in.recs, &data.Records[i])
		}
	} else {
		xFull, idxFull, err := src.WindowedMatrix(dataset.WindowSpec{N: c.window})
		if err != nil {
			return inputs{}, err
		}
		var idx []int
		in.x, idx = thinRows(xFull, idxFull, max)
		for _, j := range idx {
			in.recs = append(in.recs, &src.Records[j])
		}
	}
	if in.scaler = scaler; scaler == nil {
		in.scaler = linmodel.FitScaler(in.x)
	}
	in.xs = in.scaler.Transform(in.x)
	return in, nil
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

func labels(recs []*dataset.Record, t task) []int {
	y := make([]int, len(recs))
	for i, r := range recs {
		y[i] = t.label(r)
	}
	return y
}

// input is the matrix c's model reads: standardised or raw.
func (c cell) input(x, xs *tensor.Matrix) *tensor.Matrix {
	if c.std {
		return xs
	}
	return x
}

// fit trains c on design d.
func (c cell) fit(d *inputs) (fitted, error) {
	if d.x.Rows == 0 {
		return fitted{}, fmt.Errorf("empty training set")
	}
	if c.task == envTH {
		return c.fitEnv(d)
	}

	x, y := c.input(d.x, d.xs), labels(d.recs, c.task)
	if c.pca <= 0 {
		return c.fitClasses(x, y)
	}
	pca, err := linmodel.FitPCA(x, c.pca, c.seed)
	if err != nil {
		return fitted{}, fmt.Errorf("PCA front-end: %w", err)
	}
	f, err := c.fitClasses(pca.Transform(x), y)
	if err != nil {
		return fitted{}, err
	}
	classes := f.classes
	f.classes = func(x *tensor.Matrix) []int { return classes(pca.Transform(x)) }
	return f, nil
}

// fitEnv trains c's (temperature, humidity) regressor on c's input of
// design d (Table V: raw CSI for OLS, standardised for the MLP): OLS with a
// tiny ridge for collinear subcarriers, or the MLP of §V-D, its targets
// standardised for optimisation stability and its predictions
// un-standardised.
func (c cell) fitEnv(d *inputs) (fitted, error) {
	x, y := c.input(d.x, d.xs), tensor.NewMatrix(len(d.recs), 2)
	for i, r := range d.recs {
		y.Set(i, 0, r.Temp)
		y.Set(i, 1, r.Humidity)
	}
	if c.model == linear {
		lin, err := linmodel.FitLinear(x, y, 1e-8)
		if err != nil {
			return fitted{}, err
		}
		return fitted{env: func(x *tensor.Matrix) ([]float64, []float64) {
			p := lin.Predict(x)
			return p[0], p[1]
		}}, nil
	}
	var mean, std [2]float64
	col := make([]float64, y.Rows)
	for j := range mean {
		for i := range col {
			col[i] = y.At(i, j)
		}
		mean[j], std[j] = stats.Mean(col), stats.StdDev(col)
		if std[j] < 1e-9 {
			std[j] = 1
		}
		for i, v := range col {
			y.Set(i, j, (v-mean[j])/std[j])
		}
	}
	net := nn.NewMLP(x.Cols, c.hidden, 2, rand.New(rand.NewSource(c.seed)))
	if _, err := net.Fit(x, y, nn.MSE{}, c.train); err != nil {
		return fitted{}, err
	}
	return fitted{env: func(x *tensor.Matrix) ([]float64, []float64) {
		cols := net.PredictRegression(x)
		for j, col := range cols {
			for i, v := range col {
				col[i] = v*std[j] + mean[j]
			}
		}
		return cols[0], cols[1]
	}, net: net}, nil
}

// fitClasses trains c's classifier on inputs x with labels y.
func (c cell) fitClasses(x *tensor.Matrix, y []int) (fitted, error) {
	switch c.model {
	case linear:
		logit := &linmodel.Logistic{}
		logit.Fit(x, y)
		return fitted{classes: logit.Predict}, nil
	case forest:
		return c.fitForest(x, y), nil
	}
	k, out := c.task.classes(), c.task.classes()
	if k == 2 {
		out = 1 // one logit under binary cross-entropy
	}
	rng := rand.New(rand.NewSource(c.seed))
	var net *nn.Network
	if c.model == cnn {
		net = nn.NewCNN(x.Cols, out, rng)
	} else {
		net = nn.NewMLP(x.Cols, c.hidden, out, rng)
	}
	if k == 2 {
		yF := tensor.NewMatrix(len(y), 1)
		for i, v := range y {
			yF.Set(i, 0, float64(v))
		}
		_, err := net.Fit(x, yF, nn.BCEWithLogits{}, c.train)
		return fitted{classes: net.PredictBinary, net: net}, err
	}
	loss := nn.SoftmaxCE{}
	if c.task == activity {
		// Inverse-frequency weighting: motion samples are a small minority
		// (walking bouts last seconds), and the unweighted objective would
		// simply ignore that class.
		loss.ClassWeights = nn.InverseFrequencyWeights(y, k)
	}
	_, err := net.Fit(x, nn.OneHot(y, k), loss, c.train)
	return fitted{classes: net.PredictClasses, net: net}, err
}

// fitForest trains c's forest: a classifier for occupancy, one forest per
// class with the argmax of their probabilities for activity (the standard
// reduction with binary-leaf trees), and a regressor whose rounded, clamped
// output is the class for count.
func (c cell) fitForest(x *tensor.Matrix, y []int) fitted {
	switch c.task {
	case activity:
		forests := make([]*rf.Forest, dataset.NumActivities)
		for k := range forests {
			bin := make([]int, len(y))
			for i, l := range y {
				if l == k {
					bin[i] = 1
				}
			}
			fcfg := c.trees
			fcfg.Seed = c.trees.Seed + int64(k)
			forests[k] = rf.FitClassifier(x, bin, fcfg)
		}
		return fitted{classes: func(x *tensor.Matrix) []int {
			out := make([]int, x.Rows)
			for i := range out {
				row := x.Row(i)
				best, bestP := 0, math.Inf(-1)
				for k, f := range forests {
					if p := f.PredictProb(row); p > bestP {
						best, bestP = k, p
					}
				}
				out[i] = best
			}
			return out
		}}
	case count:
		yreg := make([]float64, len(y))
		for i, v := range y {
			yreg[i] = float64(v)
		}
		f := rf.FitRegressor(x, yreg, c.trees)
		return fitted{classes: func(x *tensor.Matrix) []int {
			raw := f.PredictValues(x)
			out := make([]int, len(raw))
			for i, v := range raw {
				out[i] = int(math.Round(tensor.Clamp(v, 0, countClasses-1)))
			}
			return out
		}}
	}
	f := rf.FitClassifier(x, y, c.trees)
	return fitted{classes: f.Predict}
}

// hidden is cfg's MLP topology, PaperHidden when unset.
func (cfg ExperimentConfig) hidden() []int {
	if len(cfg.Hidden) == 0 {
		return PaperHidden
	}
	return cfg.Hidden
}

// baseCell is cfg's cell of model m on feat for task t, the way Table IV
// fits it: cfg's cap, topology, network and forest configs, every seed
// cfg.Seed; linear models and networks read standardised inputs.
func baseCell(cfg ExperimentConfig, m model, feat dataset.FeatureSet, t task) cell {
	c := cell{
		feat: feat, task: t, model: m,
		hidden: cfg.hidden(), trees: cfg.RF, train: cfg.NNTrain,
		maxTrain: cfg.MaxTrainSamples, std: m != forest, seed: cfg.Seed,
	}
	c.trees.Seed = cfg.Seed
	c.train.Seed = cfg.Seed
	return c
}
