package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

func TestConv1DForwardKnown(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	c := NewConv1D(1, 1, 2, 4, rng)
	// Kernel [1, -1], bias 0.5: out[p] = x[p] - x[p+1] + 0.5.
	c.W = tensor.FromSlice(1, 2, []float64{1, -1})
	c.B = tensor.FromSlice(1, 1, []float64{0.5})
	x := tensor.FromSlice(1, 4, []float64{3, 1, 4, 1})
	out := c.Forward(x, false)
	want := []float64{3 - 1 + 0.5, 1 - 4 + 0.5, 4 - 1 + 0.5}
	if out.Cols != 3 {
		t.Fatalf("LOut %d", out.Cols)
	}
	for i, w := range want {
		if math.Abs(out.Data[i]-w) > 1e-12 {
			t.Fatalf("out[%d]=%g want %g", i, out.Data[i], w)
		}
	}
}

func TestConv1DMultiChannel(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	c := NewConv1D(2, 1, 1, 3, rng)
	// k=1 kernels: out = 2·ch0 + 3·ch1.
	c.W = tensor.FromSlice(1, 2, []float64{2, 3})
	c.B.Zero()
	// Channel-major row: ch0 = [1,2,3], ch1 = [10,20,30].
	x := tensor.FromSlice(1, 6, []float64{1, 2, 3, 10, 20, 30})
	out := c.Forward(x, false)
	want := []float64{32, 64, 96}
	for i, w := range want {
		if math.Abs(out.Data[i]-w) > 1e-12 {
			t.Fatalf("out[%d]=%g want %g", i, out.Data[i], w)
		}
	}
}

func TestConv1DGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	net := NewNetwork(
		NewConv1D(1, 3, 3, 10, rng), NewReLU(),
		NewDense(3*8, 1, rng),
	)
	x := tensor.NewMatrix(4, 10).RandomizeNormal(rng, 1)
	y := tensor.NewMatrix(4, 1)
	y.Set(0, 0, 1)
	y.Set(2, 0, 1)
	if rel := GradCheck(net, x, y, BCEWithLogits{}, 1e-5); rel > 1e-5 {
		t.Fatalf("conv gradient check failed: %g", rel)
	}
}

func TestMaxPool1DForwardBackward(t *testing.T) {
	p := NewMaxPool1D(2, 4, 2)
	// ch0 = [1,5,2,2], ch1 = [9,0,3,4] → pooled [5,2, 9,4].
	x := tensor.FromSlice(1, 8, []float64{1, 5, 2, 2, 9, 0, 3, 4})
	out := p.Forward(x, true)
	want := []float64{5, 2, 9, 4}
	for i, w := range want {
		if out.Data[i] != w {
			t.Fatalf("pool out %v", out.Data)
		}
	}
	g := p.Backward(tensor.FromSlice(1, 4, []float64{1, 2, 3, 4}))
	wantG := []float64{0, 1, 2, 0 /* tie → first max kept? idx2 */, 3, 0, 0, 4}
	// For ch0 window [2,2] the first element wins ties.
	wantG[2], wantG[3] = 2, 0
	for i, w := range wantG {
		if g.Data[i] != w {
			t.Fatalf("pool grad %v want %v", g.Data, wantG)
		}
	}
	if p.OutDim() != 4 || p.LOut() != 2 {
		t.Fatal("dims")
	}
}

func TestMaxPoolGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	net := NewNetwork(
		NewConv1D(1, 2, 3, 12, rng), // no ReLU: its kink at 0 would upset the finite differences
		NewMaxPool1D(2, 10, 2),
		NewDense(10, 1, rng),
	)
	x := tensor.NewMatrix(3, 12).RandomizeNormal(rng, 1)
	y := tensor.NewMatrix(3, 1).RandomizeNormal(rng, 1)
	if rel := GradCheck(net, x, y, MSE{}, 1e-6); rel > 1e-4 {
		t.Fatalf("pool gradient check failed: %g", rel)
	}
}

func TestCNNLearnsLocalPattern(t *testing.T) {
	// Class 1 iff a sharp local notch (deep fade) exists somewhere in the
	// spectrum — positionally invariant, so convolution should shine.
	rng := rand.New(rand.NewSource(85))
	n := 500
	x := tensor.NewMatrix(n, 32)
	y := tensor.NewMatrix(n, 1)
	for i := 0; i < n; i++ {
		row := x.Row(i)
		for j := range row {
			row[j] = 1 + 0.1*rng.NormFloat64()
		}
		if i%2 == 0 {
			pos := 2 + rng.Intn(28)
			row[pos] -= 1.5 // the notch
			y.Set(i, 0, 1)
		}
	}
	net := NewCNN(32, 1, rng)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 20
	cfg.BatchSize = 50
	cfg.WeightDecay = 0
	net.Fit(x, y, BCEWithLogits{}, cfg)
	pred := net.PredictBinary(x)
	correct := 0
	for i := 0; i < n; i++ {
		want := 0
		if i%2 == 0 {
			want = 1
		}
		if pred[i] == want {
			correct++
		}
	}
	if acc := float64(correct) / float64(n); acc < 0.95 {
		t.Fatalf("CNN notch accuracy %g", acc)
	}
}

func TestCNNShape(t *testing.T) {
	rng := rand.New(rand.NewSource(86))
	net := NewCNN(64, 1, rng)
	if net.InputDim() == 0 {
		// InputDim scans for Dense; conv nets report via forward shape.
		x := tensor.NewMatrix(2, 64).RandomizeNormal(rng, 1)
		out := net.Forward(x, false)
		if out.Rows != 2 || out.Cols != 1 {
			t.Fatalf("CNN output %dx%d", out.Rows, out.Cols)
		}
	}
	if net.NumParams() == 0 {
		t.Fatal("no parameters")
	}
	// The CNN should be smaller than the paper MLP (deployability).
	mlp := NewMLP(64, []int{128, 256, 128}, 1, rng)
	if net.NumParams() >= mlp.NumParams() {
		t.Fatalf("CNN (%d) should be smaller than MLP (%d)", net.NumParams(), mlp.NumParams())
	}
}

func TestConvValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(87))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kernel > length")
		}
	}()
	NewConv1D(1, 1, 5, 3, rng)
}

func TestPoolValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on window > length")
		}
	}()
	NewMaxPool1D(1, 3, 4)
}
