package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVarianceStd(t *testing.T) {
	x := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if !almostEq(Mean(x), 5, 1e-12) {
		t.Fatalf("Mean got %g", Mean(x))
	}
	if !almostEq(Variance(x), 4, 1e-12) {
		t.Fatalf("Variance got %g", Variance(x))
	}
	if !almostEq(StdDev(x), 2, 1e-12) {
		t.Fatalf("StdDev got %g", StdDev(x))
	}
	if Mean(nil) != 0 || Variance(nil) != 0 {
		t.Fatal("empty inputs should yield 0")
	}
}

func TestCovariancePearson(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 4, 6, 8, 10} // perfectly linear
	if !almostEq(Pearson(x, y), 1, 1e-12) {
		t.Fatalf("Pearson got %g", Pearson(x, y))
	}
	yneg := []float64{10, 8, 6, 4, 2}
	if !almostEq(Pearson(x, yneg), -1, 1e-12) {
		t.Fatalf("Pearson negative got %g", Pearson(x, yneg))
	}
	constant := []float64{3, 3, 3, 3, 3}
	if Pearson(x, constant) != 0 {
		t.Fatal("Pearson with constant series must be 0")
	}
	if !almostEq(Covariance(x, x), Variance(x), 1e-12) {
		t.Fatal("Cov(x,x) must equal Var(x)")
	}
}

// Property: |Pearson| <= 1 and invariant to affine transforms with positive
// scale.
func TestQuickPearsonProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(50)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		r := Pearson(x, y)
		if math.Abs(r) > 1+1e-10 {
			return false
		}
		// Affine invariance: ρ(a·x+b, y) == ρ(x, y) for a > 0.
		xs := make([]float64, n)
		for i := range x {
			xs[i] = 2.5*x[i] + 7
		}
		return almostEq(Pearson(xs, y), r, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantileAndSummary(t *testing.T) {
	x := []float64{5, 1, 4, 2, 3}
	if Quantile(x, 0) != 1 || Quantile(x, 1) != 5 {
		t.Fatal("extreme quantiles")
	}
	if !almostEq(Quantile(x, 0.5), 3, 1e-12) {
		t.Fatalf("median got %g", Quantile(x, 0.5))
	}
	if !almostEq(Quantile(x, 0.25), 2, 1e-12) {
		t.Fatalf("p25 got %g", Quantile(x, 0.25))
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Fatal("empty quantile must be NaN")
	}
	// Interpolated quantile on large input exercises the quicksort path.
	big := make([]float64, 101)
	for i := range big {
		big[i] = float64(100 - i)
	}
	if !almostEq(Quantile(big, 0.37), 37, 1e-9) {
		t.Fatalf("big quantile got %g", Quantile(big, 0.37))
	}
}

func TestSortLargeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := make([]float64, 500)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	// Quantile(., 0) sorts internally; verify order stats are consistent.
	lo := Quantile(x, 0)
	hi := Quantile(x, 1)
	for _, v := range x {
		if v < lo || v > hi {
			t.Fatal("min/max after internal sort inconsistent")
		}
	}
}

func TestMAEMAPE(t *testing.T) {
	y := []float64{10, 20, 30}
	yhat := []float64{12, 18, 33}
	if !almostEq(MAE(y, yhat), (2+2+3)/3.0, 1e-12) {
		t.Fatalf("MAE got %g", MAE(y, yhat))
	}
	wantMAPE := 100 * (2/10.0 + 2/20.0 + 3/30.0) / 3
	if !almostEq(MAPE(y, yhat), wantMAPE, 1e-9) {
		t.Fatalf("MAPE got %g want %g", MAPE(y, yhat), wantMAPE)
	}
	// Zero target exercises the ε guard without dividing by zero.
	if m := MAPE([]float64{0}, []float64{1}); math.IsInf(m, 0) || math.IsNaN(m) {
		t.Fatal("MAPE must stay finite on zero targets")
	}
	if MAE(nil, nil) != 0 || MAPE(nil, nil) != 0 {
		t.Fatal("empty metrics must be 0")
	}
}

func TestAccuracyConfusion(t *testing.T) {
	y := []int{1, 1, 0, 0, 1}
	p := []int{1, 0, 0, 1, 1}
	if !almostEq(Accuracy(y, p), 0.6, 1e-12) {
		t.Fatalf("Accuracy got %g", Accuracy(y, p))
	}
	var cm ConfusionMatrix
	for i := range y {
		cm.Observe(y[i], p[i])
	}
	if cm.TP != 2 || cm.TN != 1 || cm.FP != 1 || cm.FN != 1 {
		t.Fatalf("confusion %+v", cm)
	}
	if !almostEq(cm.Accuracy(), 0.6, 1e-12) {
		t.Fatal("cm accuracy")
	}
	if !almostEq(cm.Precision(), 2.0/3, 1e-12) || !almostEq(cm.Recall(), 2.0/3, 1e-12) {
		t.Fatalf("prec/rec %+v", cm)
	}
	if !almostEq(cm.F1(), 2.0/3, 1e-12) {
		t.Fatal("f1")
	}
	empty := &ConfusionMatrix{}
	if empty.Accuracy() != 0 || empty.Precision() != 0 || empty.Recall() != 0 || empty.F1() != 0 {
		t.Fatal("empty confusion matrix metrics must be 0")
	}
}

func TestMismatchedLengthsPanic(t *testing.T) {
	for name, f := range map[string]func(){
		"MAE":      func() { MAE([]float64{1}, []float64{1, 2}) },
		"Accuracy": func() { Accuracy([]int{1}, []int{1, 0}) },
		"Cov":      func() { Covariance([]float64{1}, []float64{1, 2}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}
