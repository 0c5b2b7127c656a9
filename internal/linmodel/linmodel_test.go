package linmodel

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/stats"
	"repro/internal/tensor"
)

func TestScalerStandardises(t *testing.T) {
	x := tensor.FromSlice(3, 2, []float64{1, 100, 2, 200, 3, 300})
	s := FitScaler(x)
	z := s.Transform(x)
	for j := 0; j < 2; j++ {
		col := []float64{z.At(0, j), z.At(1, j), z.At(2, j)}
		if math.Abs(stats.Mean(col)) > 1e-12 {
			t.Fatalf("column %d mean %g", j, stats.Mean(col))
		}
		if math.Abs(stats.StdDev(col)-1) > 1e-12 {
			t.Fatalf("column %d std %g", j, stats.StdDev(col))
		}
	}
	// Original untouched.
	if x.At(0, 0) != 1 {
		t.Fatal("Transform must not mutate input")
	}
}

func TestScalerConstantColumn(t *testing.T) {
	x := tensor.FromSlice(2, 2, []float64{5, 1, 5, 2})
	s := FitScaler(x)
	z := s.Transform(x)
	if z.At(0, 0) != 0 || z.At(1, 0) != 0 {
		t.Fatal("constant column must map to zero")
	}
	if math.IsNaN(z.At(0, 1)) {
		t.Fatal("NaN leak")
	}
}

func TestScalerTransformRow(t *testing.T) {
	x := tensor.FromSlice(2, 1, []float64{0, 2})
	s := FitScaler(x)
	row := []float64{2}
	s.TransformRow(row)
	if math.Abs(row[0]-1) > 1e-12 {
		t.Fatalf("TransformRow got %g", row[0])
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected width panic")
		}
	}()
	s.TransformRow([]float64{1, 2})
}

func TestLogisticSeparable(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	n := 400
	x := tensor.NewMatrix(n, 2)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		a, b := rng.NormFloat64(), rng.NormFloat64()
		x.Set(i, 0, a)
		x.Set(i, 1, b)
		if a+2*b > 0.5 {
			y[i] = 1
		}
	}
	var lr Logistic
	lr.Fit(x, y)
	pred := lr.Predict(x)
	if acc := stats.Accuracy(y, pred); acc < 0.95 {
		t.Fatalf("separable accuracy %g", acc)
	}
	// The learned direction should correlate with (1, 2).
	if lr.W[1] < lr.W[0] {
		t.Fatalf("weight ordering wrong: %v", lr.W)
	}
}

func TestLogisticCannotSolveXOR(t *testing.T) {
	// The paper's point: a linear classifier cannot capture non-linear
	// structure. By symmetry the XOR optimum is W = 0, B = 0 exactly: the
	// gradient vanishes at the starting point.
	x := tensor.FromSlice(4, 2, []float64{0, 0, 0, 1, 1, 0, 1, 1})
	y := []int{0, 1, 1, 0}
	var lr Logistic
	lr.Fit(x, y)
	if lr.W[0] != 0 || lr.W[1] != 0 || lr.B != 0 {
		t.Fatalf("XOR optimum W=%v B=%g, want exact zeros", lr.W, lr.B)
	}
}

// With one class present the optimum runs off to infinity along the bias;
// the solve must still stop, with finite weights that predict that class.
func TestLogisticSingleClass(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	x := tensor.NewMatrix(50, 3).RandomizeNormal(rng, 1)
	for _, class := range []int{0, 1} {
		y := make([]int, x.Rows)
		for i := range y {
			y[i] = class
		}
		var lr Logistic
		lr.Fit(x, y)
		for _, v := range append([]float64{lr.B}, lr.W...) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("class %d: non-finite weights W=%v B=%g", class, lr.W, lr.B)
			}
		}
		for i, p := range lr.Predict(x) {
			if p != class {
				t.Fatalf("class %d: row %d predicted %d", class, i, p)
			}
		}
	}
}

func TestLogisticEmptyAndMismatch(t *testing.T) {
	var lr Logistic
	lr.Fit(tensor.NewMatrix(0, 3), nil)
	if len(lr.W) != 3 || lr.B != 0 {
		t.Fatal("empty fit must produce zero model")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected mismatch panic")
		}
	}()
	lr.Fit(tensor.NewMatrix(2, 3), []int{1})
}

func TestFitLinearRecoversPlantedModel(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	n := 300
	x := tensor.NewMatrix(n, 3).RandomizeNormal(rng, 1)
	y := tensor.NewMatrix(n, 2)
	for i := 0; i < n; i++ {
		r := x.Row(i)
		y.Set(i, 0, 2*r[0]-1*r[1]+0.5*r[2]+3)
		y.Set(i, 1, -r[0]+4*r[2]-2)
	}
	lin, err := FitLinear(x, y, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantW := [][]float64{{2, -1}, {-1, 0}, {0.5, 4}}
	for j := 0; j < 3; j++ {
		for c := 0; c < 2; c++ {
			if math.Abs(lin.W.At(j, c)-wantW[j][c]) > 1e-8 {
				t.Fatalf("W[%d][%d]=%g want %g", j, c, lin.W.At(j, c), wantW[j][c])
			}
		}
	}
	if math.Abs(lin.B[0]-3) > 1e-8 || math.Abs(lin.B[1]+2) > 1e-8 {
		t.Fatalf("intercepts %v", lin.B)
	}
	// Predict matches construction.
	pred := lin.Predict(x)
	for i := 0; i < n; i++ {
		if math.Abs(pred[0][i]-y.At(i, 0)) > 1e-8 {
			t.Fatal("prediction mismatch")
		}
	}
}

func TestFitLinearCollinearWithRidge(t *testing.T) {
	// Duplicate feature columns: OLS is singular, the ridge path must save it.
	rng := rand.New(rand.NewSource(33))
	n := 100
	x := tensor.NewMatrix(n, 2)
	y := tensor.NewMatrix(n, 1)
	for i := 0; i < n; i++ {
		v := rng.NormFloat64()
		x.Set(i, 0, v)
		x.Set(i, 1, v)
		y.Set(i, 0, 3*v+1)
	}
	lin, err := FitLinear(x, y, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	pred := lin.Predict(x)
	if stats.MAE(pred[0], colOf(y, 0)) > 1e-3 {
		t.Fatalf("collinear fit MAE too high")
	}
}

func TestFitLinearErrors(t *testing.T) {
	if _, err := FitLinear(tensor.NewMatrix(2, 1), tensor.NewMatrix(3, 1), 0); err == nil {
		t.Fatal("expected row mismatch error")
	}
	if _, err := FitLinear(tensor.NewMatrix(0, 1), tensor.NewMatrix(0, 1), 0); err == nil {
		t.Fatal("expected empty-data error")
	}
}

// Property: OLS residuals are orthogonal to every feature column (the normal
// equations' defining property).
func TestQuickOLSResidualOrthogonality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(60)
		d := 1 + rng.Intn(4)
		x := tensor.NewMatrix(n, d).RandomizeNormal(rng, 1)
		y := tensor.NewMatrix(n, 1).RandomizeNormal(rng, 2)
		lin, err := FitLinear(x, y, 0)
		if err != nil {
			return true // singular draw; skip
		}
		pred := lin.Predict(x)[0]
		res := make([]float64, n)
		for i := range res {
			res[i] = y.At(i, 0) - pred[i]
		}
		for j := 0; j < d; j++ {
			col := colOf(x, j)
			// Centre the column: orthogonality holds for centred features
			// because of the fitted intercept.
			m := stats.Mean(col)
			var dot float64
			for i := range col {
				dot += (col[i] - m) * res[i]
			}
			if math.Abs(dot)/float64(n) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func colOf(m *tensor.Matrix, j int) []float64 {
	out := make([]float64, m.Rows)
	for i := range out {
		out[i] = m.At(i, j)
	}
	return out
}
