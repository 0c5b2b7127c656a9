package rf

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// ForestConfig controls forest training.
type ForestConfig struct {
	NumTrees int
	MaxDepth int
	MinLeaf  int
	// MTry is the number of features considered per split; <=0 selects
	// √d for classification and d/3 for regression, the customary defaults.
	MTry int
	Seed int64
}

// Validate reports whether the configuration is trainable (zero sizes are
// defaulted by Fit, so only contradictions fail).
func (c ForestConfig) Validate() error {
	if c.NumTrees < 0 {
		return fmt.Errorf("rf: negative NumTrees %d", c.NumTrees)
	}
	return TreeConfig{MaxDepth: c.MaxDepth, MinLeaf: c.MinLeaf, MTry: c.MTry}.Validate()
}

// DefaultForestConfig mirrors common scikit-learn defaults scaled for a
// pure-Go training budget.
func DefaultForestConfig() ForestConfig {
	return ForestConfig{NumTrees: 30, MaxDepth: 18, MinLeaf: 2, Seed: 1}
}

// Forest is a bagged ensemble of CART trees.
type Forest struct {
	Trees     []*Tree
	nFeatures int
}

// FitClassifier trains a classification forest on x with labels y ∈ {0,1}.
func FitClassifier(x *tensor.Matrix, y []int, cfg ForestConfig) *Forest {
	yf := make([]float64, len(y))
	for i, v := range y {
		yf[i] = float64(v)
	}
	return fit(x, yf, cfg, false)
}

// FitRegressor trains a regression forest on x with real targets y.
func FitRegressor(x *tensor.Matrix, y []float64, cfg ForestConfig) *Forest {
	return fit(x, y, cfg, true)
}

func fit(x *tensor.Matrix, y []float64, cfg ForestConfig, regression bool) *Forest {
	if x.Rows != len(y) {
		panic(fmt.Sprintf("rf: Fit rows %d != labels %d", x.Rows, len(y)))
	}
	if cfg.NumTrees <= 0 {
		cfg.NumTrees = 1
	}
	mtry := cfg.MTry
	if mtry <= 0 {
		if regression {
			mtry = x.Cols / 3
		} else {
			mtry = int(math.Sqrt(float64(x.Cols)))
		}
		if mtry < 1 {
			mtry = 1
		}
	}
	f := &Forest{Trees: make([]*Tree, cfg.NumTrees), nFeatures: x.Cols}
	if x.Rows == 0 {
		for i := range f.Trees {
			f.Trees[i] = BuildTree(x, y, nil, TreeConfig{}, regression, rand.New(rand.NewSource(cfg.Seed)))
		}
		return f
	}

	// Per-tree deterministic seeds derived from the master seed.
	seeds := make([]int64, cfg.NumTrees)
	master := rand.New(rand.NewSource(cfg.Seed))
	for i := range seeds {
		seeds[i] = master.Int63()
	}

	// Tree training fans out on the shared pool; each task touches only its
	// own slot, so no locking is needed.
	parallel.ForEach(0, cfg.NumTrees, func(ti int) {
		rng := rand.New(rand.NewSource(seeds[ti]))
		idx := make([]int, x.Rows) // a bootstrap sample, drawn with replacement
		for j := range idx {
			idx[j] = rng.Intn(x.Rows)
		}
		f.Trees[ti] = BuildTree(x, y, idx, TreeConfig{
			MaxDepth: cfg.MaxDepth, MinLeaf: cfg.MinLeaf, MTry: mtry,
		}, regression, rng)
	})
	return f
}

// PredictProb returns the ensemble class-1 probability for one sample.
func (f *Forest) PredictProb(row []float64) float64 {
	var s float64
	for _, t := range f.Trees {
		s += t.PredictValue(row)
	}
	return s / float64(len(f.Trees))
}

// Predict returns hard {0,1} labels for each row of x (classification).
func (f *Forest) Predict(x *tensor.Matrix) []int {
	out := make([]int, x.Rows)
	parallelRows(x.Rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if f.PredictProb(x.Row(i)) >= 0.5 {
				out[i] = 1
			}
		}
	})
	return out
}

// PredictValues returns the mean leaf values for each row (regression, or
// class-1 probabilities for classification forests).
func (f *Forest) PredictValues(x *tensor.Matrix) []float64 {
	out := make([]float64, x.Rows)
	parallelRows(x.Rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = f.PredictProb(x.Row(i))
		}
	})
	return out
}

func parallelRows(n int, fn func(lo, hi int)) {
	// Tree traversal is ~1µs per row; below a few hundred rows the spawn
	// cost of the pool outweighs the win.
	if n < 256 {
		fn(0, n)
		return
	}
	parallel.ForEachChunk(0, n, fn)
}
