package rf

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/stats"
	"repro/internal/tensor"
)

func allIdx(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

func TestTreeLearnsThreshold(t *testing.T) {
	// One feature, clean threshold at 0.5.
	n := 100
	x := tensor.NewMatrix(n, 1)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		v := float64(i) / float64(n)
		x.Set(i, 0, v)
		if v > 0.5 {
			y[i] = 1
		}
	}
	rng := rand.New(rand.NewSource(1))
	tree := BuildTree(x, y, allIdx(n), TreeConfig{}, false, rng)
	for i := 0; i < n; i++ {
		p := tree.PredictValue(x.Row(i))
		want := y[i]
		if (p >= 0.5) != (want == 1) {
			t.Fatalf("sample %d: got %g want %g", i, p, want)
		}
	}
	if len(tree.nodes) != 3 {
		t.Fatalf("clean threshold should give a stump: nodes=%d", len(tree.nodes))
	}
}

func TestTreeXOR(t *testing.T) {
	// Trees handle XOR (unlike logistic regression) by splitting twice.
	x := tensor.FromSlice(4, 2, []float64{0, 0, 0, 1, 1, 0, 1, 1})
	y := []float64{0, 1, 1, 0}
	rng := rand.New(rand.NewSource(2))
	tree := BuildTree(x, y, allIdx(4), TreeConfig{MinLeaf: 1}, false, rng)
	for i := 0; i < 4; i++ {
		p := tree.PredictValue(x.Row(i))
		if (p >= 0.5) != (y[i] == 1) {
			t.Fatalf("XOR sample %d wrong: %g", i, p)
		}
	}
}

func TestTreeRespectsMaxDepthAndMinLeaf(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 200
	x := tensor.NewMatrix(n, 3).RandomizeNormal(rng, 1)
	y := make([]float64, n)
	for i := range y {
		if rng.Float64() < 0.5 {
			y[i] = 1
		}
	}
	tree := BuildTree(x, y, allIdx(n), TreeConfig{MaxDepth: 3, MinLeaf: 10}, false, rng)
	// A binary tree no deeper than 3 has at most 2⁴−1 nodes.
	if len(tree.nodes) > 15 {
		t.Fatalf("%d nodes exceed what depth 3 allows", len(tree.nodes))
	}
	// Every leaf must hold >= MinLeaf samples.
	for _, nd := range tree.nodes {
		if nd.feature < 0 && nd.samples < 10 && nd.samples > 0 {
			t.Fatalf("leaf with %d < MinLeaf samples", nd.samples)
		}
	}
}

func TestTreeEmptyAndConstant(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := tensor.NewMatrix(5, 2)
	y := []float64{1, 1, 1, 1, 1}
	tree := BuildTree(x, y, nil, TreeConfig{}, false, rng)
	if len(tree.nodes) != 1 {
		t.Fatal("empty index must give single leaf")
	}
	// Pure labels: single leaf predicting 1.
	tree = BuildTree(x, y, allIdx(5), TreeConfig{}, false, rng)
	if len(tree.nodes) != 1 || tree.PredictValue(x.Row(0)) != 1 {
		t.Fatal("pure node must be a leaf")
	}
	// Constant features with mixed labels: no split possible.
	y2 := []float64{0, 1, 0, 1, 0}
	tree = BuildTree(x, y2, allIdx(5), TreeConfig{}, false, rng)
	if len(tree.nodes) != 1 {
		t.Fatal("constant features cannot split")
	}
}

func TestRegressionTree(t *testing.T) {
	// y = step function of x; regression tree should recover both levels.
	n := 100
	x := tensor.NewMatrix(n, 1)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		v := float64(i) / float64(n)
		x.Set(i, 0, v)
		if v > 0.3 {
			y[i] = 5
		} else {
			y[i] = -2
		}
	}
	rng := rand.New(rand.NewSource(5))
	tree := BuildTree(x, y, allIdx(n), TreeConfig{}, true, rng)
	if math.Abs(tree.PredictValue([]float64{0.1})+2) > 1e-9 {
		t.Fatalf("low branch got %g", tree.PredictValue([]float64{0.1}))
	}
	if math.Abs(tree.PredictValue([]float64{0.9})-5) > 1e-9 {
		t.Fatalf("high branch got %g", tree.PredictValue([]float64{0.9}))
	}
}

func TestForestClassifierAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 600
	x := tensor.NewMatrix(n, 4).RandomizeNormal(rng, 1)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		r := x.Row(i)
		// Non-linear decision boundary.
		if r[0]*r[1]+r[2] > 0 {
			y[i] = 1
		}
	}
	cfg := DefaultForestConfig()
	cfg.NumTrees = 20
	f := FitClassifier(x, y, cfg)
	pred := f.Predict(x)
	if acc := stats.Accuracy(y, pred); acc < 0.9 {
		t.Fatalf("train accuracy %g too low", acc)
	}
}

func TestForestRegressor(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 500
	x := tensor.NewMatrix(n, 2).RandomizeNormal(rng, 1)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		r := x.Row(i)
		y[i] = math.Sin(r[0]) + 0.5*r[1]
	}
	cfg := DefaultForestConfig()
	cfg.NumTrees = 20
	f := FitRegressor(x, y, cfg)
	pred := f.PredictValues(x)
	if mae := stats.MAE(y, pred); mae > 0.25 {
		t.Fatalf("regression MAE %g too high", mae)
	}
}

func TestForestDeterministicForSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := 200
	x := tensor.NewMatrix(n, 3).RandomizeNormal(rng, 1)
	y := make([]int, n)
	for i := range y {
		if x.At(i, 0) > 0 {
			y[i] = 1
		}
	}
	cfg := DefaultForestConfig()
	cfg.NumTrees = 8
	a := FitClassifier(x, y, cfg)
	b := FitClassifier(x, y, cfg)
	for i := 0; i < n; i++ {
		if a.PredictProb(x.Row(i)) != b.PredictProb(x.Row(i)) {
			t.Fatal("same seed must give identical forests")
		}
	}
}

func TestForestEmpty(t *testing.T) {
	f := FitClassifier(tensor.NewMatrix(0, 3), nil, DefaultForestConfig())
	if p := f.PredictProb([]float64{1, 2, 3}); p != 0 {
		t.Fatalf("empty forest should predict 0, got %g", p)
	}
}

// Property: forest probability is always within [0,1] and equals the mean of
// its trees' leaf values.
func TestQuickForestProbBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 30 + rng.Intn(40)
		x := tensor.NewMatrix(n, 3).RandomizeNormal(rng, 1)
		y := make([]int, n)
		for i := range y {
			if rng.Float64() < 0.5 {
				y[i] = 1
			}
		}
		cfg := DefaultForestConfig()
		cfg.NumTrees = 5
		cfg.Seed = seed
		forest := FitClassifier(x, y, cfg)
		for i := 0; i < n; i++ {
			p := forest.PredictProb(x.Row(i))
			if p < 0 || p > 1 {
				return false
			}
			var mean float64
			for _, tr := range forest.Trees {
				mean += tr.PredictValue(x.Row(i))
			}
			mean /= float64(len(forest.Trees))
			if math.Abs(mean-p) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
