package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

func TestDenseForwardKnown(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense(2, 2, rng)
	d.W = tensor.FromSlice(2, 2, []float64{1, 2, 3, 4})
	d.B = tensor.FromSlice(1, 2, []float64{10, 20})
	x := tensor.FromSlice(2, 2, []float64{1, 1, 2, 0})
	out := d.Forward(x, false)
	want := tensor.FromSlice(2, 2, []float64{14, 26, 12, 24})
	for i := range want.Data {
		if out.Data[i] != want.Data[i] {
			t.Fatalf("dense forward got %v", out)
		}
	}
}

func TestDenseBackwardShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := NewDense(3, 5, rng)
	x := tensor.NewMatrix(7, 3).RandomizeNormal(rng, 1)
	out := d.Forward(x, true)
	if out.Rows != 7 || out.Cols != 5 {
		t.Fatalf("forward shape %dx%d", out.Rows, out.Cols)
	}
	grad := tensor.NewMatrix(7, 5).RandomizeNormal(rng, 1)
	dx := d.Backward(grad)
	if dx.Rows != 7 || dx.Cols != 3 {
		t.Fatalf("backward shape %dx%d", dx.Rows, dx.Cols)
	}
	if d.GradW.Rows != 3 || d.GradW.Cols != 5 || d.GradB.Cols != 5 {
		t.Fatal("grad shapes wrong")
	}
}

func TestDenseBackwardRequiresTrainingForward(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := NewDense(2, 2, rng)
	d.Forward(tensor.NewMatrix(1, 2), false) // inference: no cache
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.Backward(tensor.NewMatrix(1, 2))
}

func TestReLU(t *testing.T) {
	r := NewReLU()
	x := tensor.FromSlice(1, 3, []float64{-1, 0, 2})
	out := r.Forward(x, true)
	if out.Data[0] != 0 || out.Data[1] != 0 || out.Data[2] != 2 {
		t.Fatalf("relu forward %v", out.Data)
	}
	g := r.Backward(tensor.FromSlice(1, 3, []float64{5, 5, 5}))
	if g.Data[0] != 0 || g.Data[1] != 0 || g.Data[2] != 5 {
		t.Fatalf("relu backward %v", g.Data)
	}
}

// TestReLUExact holds the branch-free ReLU to the scalar definition under
// math.Float64bits — forward v if v > 0 else +0, backward g if v > 0 else
// +0 — for every class of bit pattern: signed zeros, the smallest
// subnormals, ±MaxFloat64, ±Inf, quiet and signalling NaNs with the sign
// bit set and clear, and NaN and infinite gradients.
func TestReLUExact(t *testing.T) {
	bits := math.Float64frombits
	vals := []float64{
		0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-323, bits(0x000FFFFFFFFFFFFF),
		2.2250738585072014e-308, -2.2250738585072014e-308, 1, -1,
		math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1),
		math.NaN(), bits(0x7FF0000000000001), bits(0x7FFFFFFFFFFFFFFF),
		bits(0xFFF8000000000000), bits(0xFFF0000000000001), bits(0xFFFFFFFFFFFFFFFF),
	}
	grads := []float64{1, -2.5, 0, math.Copysign(0, -1), 5e-324, math.Inf(-1), math.NaN(), bits(0xFFF8000000000001)}
	x := tensor.NewMatrix(len(grads), len(vals))
	g := tensor.NewMatrix(len(grads), len(vals))
	for i, gv := range grads {
		copy(x.Row(i), vals)
		for j := range vals {
			g.Set(i, j, gv)
		}
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	r := NewReLU()
	infer := r.Forward(x, false)
	out := r.Forward(x, true)
	dx := r.Backward(g)
	for k, v := range x.Data {
		wantOut, wantDx := 0.0, 0.0
		if v > 0 {
			wantOut, wantDx = v, g.Data[k]
		}
		if !same(out.Data[k], wantOut) || !same(infer.Data[k], wantOut) {
			t.Errorf("ReLU(%#016x) = %#016x (inference %#016x), want %#016x", math.Float64bits(v),
				math.Float64bits(out.Data[k]), math.Float64bits(infer.Data[k]), math.Float64bits(wantOut))
		}
		if !same(dx.Data[k], wantDx) {
			t.Errorf("ReLU'(%#016x)·%#016x = %#016x, want %#016x", math.Float64bits(v), math.Float64bits(g.Data[k]),
				math.Float64bits(dx.Data[k]), math.Float64bits(wantDx))
		}
	}
}

func TestSigmoidScalarStability(t *testing.T) {
	if SigmoidScalar(0) != 0.5 {
		t.Fatal("sigmoid(0)")
	}
	if v := SigmoidScalar(1000); v != 1 {
		t.Fatalf("sigmoid(1000) = %g", v)
	}
	if v := SigmoidScalar(-1000); v != 0 {
		t.Fatalf("sigmoid(-1000) = %g", v)
	}
	if math.IsNaN(SigmoidScalar(-745)) || math.IsNaN(SigmoidScalar(745)) {
		t.Fatal("sigmoid overflow")
	}
}

func TestBCEWithLogitsMatchesNaive(t *testing.T) {
	pred := tensor.FromSlice(3, 1, []float64{2.0, -1.5, 0.3})
	target := tensor.FromSlice(3, 1, []float64{1, 0, 1})
	var want float64
	for i := range pred.Data {
		p := SigmoidScalar(pred.Data[i])
		y := target.Data[i]
		want += -(y*math.Log(p) + (1-y)*math.Log(1-p))
	}
	want /= 3
	got := BCEWithLogits{}.Value(pred, target)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("BCE got %g want %g", got, want)
	}
	// Extreme logits must stay finite.
	huge := tensor.FromSlice(2, 1, []float64{1e4, -1e4})
	yh := tensor.FromSlice(2, 1, []float64{0, 1})
	if v := (BCEWithLogits{}).Value(huge, yh); math.IsInf(v, 0) || math.IsNaN(v) {
		t.Fatalf("BCE not stable: %g", v)
	}
}

func TestMSEValueGrad(t *testing.T) {
	pred := tensor.FromSlice(2, 1, []float64{1, 3})
	target := tensor.FromSlice(2, 1, []float64{0, 0})
	if v := (MSE{}).Value(pred, target); math.Abs(v-5) > 1e-12 {
		t.Fatalf("MSE got %g", v)
	}
	g := MSE{}.Grad(nil, pred, target)
	if math.Abs(g.Data[0]-1) > 1e-12 || math.Abs(g.Data[1]-3) > 1e-12 {
		t.Fatalf("MSE grad %v", g.Data)
	}
}

// TestGradCheckMLPBCE: the critical correctness test — analytic backprop
// must match finite differences through the whole paper architecture.
func TestGradCheckMLPBCE(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	net := NewMLP(6, []int{8, 7}, 1, rng)
	x := tensor.NewMatrix(5, 6).RandomizeNormal(rng, 1)
	y := tensor.NewMatrix(5, 1)
	for i := 0; i < 5; i++ {
		if rng.Float64() < 0.5 {
			y.Set(i, 0, 1)
		}
	}
	rel := GradCheck(net, x, y, BCEWithLogits{}, 1e-5)
	if rel > 1e-5 {
		t.Fatalf("gradient check failed: max rel err %g", rel)
	}
}

func TestGradCheckMLPMSE(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	net := NewMLP(4, []int{9}, 2, rng)
	x := tensor.NewMatrix(6, 4).RandomizeNormal(rng, 1)
	y := tensor.NewMatrix(6, 2).RandomizeNormal(rng, 1)
	rel := GradCheck(net, x, y, MSE{}, 1e-5)
	if rel > 1e-5 {
		t.Fatalf("gradient check failed: max rel err %g", rel)
	}
}

// TestGradCheckLinearStackMSE: a Dense feeding a Dense with no activation
// between them, a stack NewMLP never builds.
func TestGradCheckLinearStackMSE(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	net := NewNetwork(
		NewDense(3, 5, rng),
		NewDense(5, 1, rng),
	)
	x := tensor.NewMatrix(4, 3).RandomizeNormal(rng, 1)
	y := tensor.NewMatrix(4, 1).RandomizeNormal(rng, 2)
	rel := GradCheck(net, x, y, MSE{}, 1e-5)
	if rel > 1e-5 {
		t.Fatalf("gradient check failed: max rel err %g", rel)
	}
}

func TestMLPArchitectureString(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	net := NewMLP(64, []int{128, 256, 128}, 1, rng)
	want := "dense(64→128)-relu-dense(128→256)-relu-dense(256→128)-relu-dense(128→1)"
	if net.String() != want {
		t.Fatalf("architecture %q", net.String())
	}
	// Per-layer parameter counts from DESIGN.md §5.
	dense := []*Dense{}
	for _, l := range net.Layers {
		if d, ok := l.(*Dense); ok {
			dense = append(dense, d)
		}
	}
	counts := []int{8320, 33024, 32896, 129}
	for i, d := range dense {
		if n := len(d.W.Data) + len(d.B.Data); n != counts[i] {
			t.Fatalf("layer %d params %d want %d", i, n, counts[i])
		}
	}
	if net.NumParams() != 8320+33024+32896+129 {
		t.Fatalf("total params %d", net.NumParams())
	}
	if net.InputDim() != 64 || net.OutputDim() != 1 {
		t.Fatal("dims")
	}
	if net.SizeBytes(4) != net.NumParams()*4 {
		t.Fatal("SizeBytes")
	}
}

// TestFitLearnsXOR: training must solve a non-linearly-separable problem.
func TestFitLearnsXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	net := NewMLP(2, []int{16}, 1, rng)
	x := tensor.FromSlice(4, 2, []float64{0, 0, 0, 1, 1, 0, 1, 1})
	y := tensor.FromSlice(4, 1, []float64{0, 1, 1, 0})
	cfg := DefaultTrainConfig()
	cfg.Epochs = 400
	cfg.BatchSize = 4
	cfg.LR = 0.01
	cfg.WeightDecay = 0
	hist, _ := net.Fit(x, y, BCEWithLogits{}, cfg)
	if hist[len(hist)-1] > 0.1 {
		t.Fatalf("XOR loss did not converge: %g", hist[len(hist)-1])
	}
	pred := net.PredictBinary(x)
	want := []int{0, 1, 1, 0}
	for i := range want {
		if pred[i] != want[i] {
			t.Fatalf("XOR prediction %v", pred)
		}
	}
}

func TestFitLossDecreasesAndCallbacks(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	net := NewMLP(3, []int{8}, 1, rng)
	n := 200
	x := tensor.NewMatrix(n, 3).RandomizeNormal(rng, 1)
	y := tensor.NewMatrix(n, 1)
	for i := 0; i < n; i++ {
		if x.At(i, 0)+x.At(i, 1) > 0 {
			y.Set(i, 0, 1)
		}
	}
	epochs := 0
	cfg := DefaultTrainConfig()
	cfg.Epochs = 15
	cfg.BatchSize = 32
	cfg.OnEpoch = func(e int, l float64) { epochs++ }
	hist, _ := net.Fit(x, y, BCEWithLogits{}, cfg)
	if epochs != 15 || len(hist) != 15 {
		t.Fatalf("epoch callbacks %d, history %d", epochs, len(hist))
	}
	if hist[len(hist)-1] >= hist[0] {
		t.Fatalf("loss did not decrease: %g → %g", hist[0], hist[len(hist)-1])
	}
}

func TestFitOnlineImproves(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	net := NewMLP(2, []int{8}, 1, rng)
	opt := NewAdamW(0.01, 0)
	x := tensor.FromSlice(2, 2, []float64{1, 0, 0, 1})
	y := tensor.FromSlice(2, 1, []float64{1, 0})
	first := net.FitOnline(x, y, BCEWithLogits{}, opt, 5)
	var last float64
	for i := 0; i < 200; i++ {
		last = net.FitOnline(x, y, BCEWithLogits{}, opt, 5)
	}
	if last >= first {
		t.Fatalf("online training did not improve: %g → %g", first, last)
	}
}

func TestOptimizersReduceQuadratic(t *testing.T) {
	// Minimise f(w) = ||w||² via each optimiser, starting from w=1.
	for _, tc := range []struct {
		name string
		opt  *AdamW
	}{
		{"adamw", NewAdamW(0.1, 0)},
	} {
		w := tensor.FromSlice(1, 3, []float64{1, 1, 1})
		g := tensor.NewMatrix(1, 3)
		for i := 0; i < 200; i++ {
			for j := range g.Data {
				g.Data[j] = 2 * w.Data[j]
			}
			tc.opt.Step([]*tensor.Matrix{w}, []*tensor.Matrix{g})
		}
		if w.MaxAbs() > 1e-2 {
			t.Fatalf("%s failed to minimise quadratic: %v", tc.name, w.Data)
		}
	}
}

func TestAdamWDecoupledDecayShrinksWeights(t *testing.T) {
	// With zero gradient, AdamW must still shrink weights (decoupled decay).
	a := NewAdamW(0.01, 0.1)
	w := tensor.FromSlice(1, 1, []float64{1})
	g := tensor.NewMatrix(1, 1)
	for i := 0; i < 10; i++ {
		a.Step([]*tensor.Matrix{w}, []*tensor.Matrix{g})
	}
	if w.Data[0] >= 1 || w.Data[0] <= 0 {
		t.Fatalf("decoupled decay wrong: %g", w.Data[0])
	}
}

func TestClipGradNorm(t *testing.T) {
	g := tensor.FromSlice(1, 2, []float64{3, 4})
	norm := ClipGradNorm([]*tensor.Matrix{g}, 1)
	if math.Abs(norm-5) > 1e-12 {
		t.Fatalf("pre-clip norm %g", norm)
	}
	if math.Abs(tensor.Norm2(g.Data)-1) > 1e-12 {
		t.Fatalf("post-clip norm %g", tensor.Norm2(g.Data))
	}
	// Under the budget: untouched.
	g2 := tensor.FromSlice(1, 2, []float64{0.3, 0.4})
	ClipGradNorm([]*tensor.Matrix{g2}, 1)
	if g2.Data[0] != 0.3 {
		t.Fatal("clip must not rescale small gradients")
	}
}

func TestPredictHelpers(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	net := NewMLP(2, []int{4}, 1, rng)
	x := tensor.NewMatrix(3, 2).RandomizeNormal(rng, 1)
	probs := net.PredictProbs(x)
	for _, p := range probs {
		if p < 0 || p > 1 {
			t.Fatalf("prob out of range: %g", p)
		}
	}
	bin := net.PredictBinary(x)
	for i, b := range bin {
		if (probs[i] >= 0.5) != (b == 1) {
			t.Fatal("binary threshold mismatch")
		}
	}
	reg := NewMLP(2, []int{4}, 3, rng)
	cols := reg.PredictRegression(x)
	if len(cols) != 3 || len(cols[0]) != 3 {
		t.Fatal("regression output shape")
	}
}

func TestForwardBackwardCapture(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	net := NewMLP(3, []int{5}, 1, rng)
	x := tensor.NewMatrix(2, 3).RandomizeNormal(rng, 1)
	sel := tensor.NewMatrix(2, 1)
	sel.Fill(1)
	res := net.ForwardBackwardCapture(x, sel)
	if len(res.Acts) != len(net.Layers) || len(res.Grads) != len(net.Layers) {
		t.Fatal("capture lengths")
	}
	if res.Output != res.Acts[len(res.Acts)-1] {
		t.Fatal("output must be last activation")
	}
	if res.InputGrad.Rows != 2 || res.InputGrad.Cols != 3 {
		t.Fatal("input grad shape")
	}
	// The gradient at the last layer's output is the selector itself.
	if res.Grads[len(res.Grads)-1] != sel {
		t.Fatal("last grad must be the selector")
	}
}

func TestFitInputValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	net := NewMLP(2, []int{3}, 1, rng)
	if h, err := net.Fit(tensor.NewMatrix(0, 2), tensor.NewMatrix(0, 1), MSE{}, DefaultTrainConfig()); h != nil || err != nil {
		t.Fatal("empty fit should return nil history")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on row mismatch")
		}
	}()
	net.Fit(tensor.NewMatrix(3, 2), tensor.NewMatrix(2, 1), MSE{}, DefaultTrainConfig())
}
