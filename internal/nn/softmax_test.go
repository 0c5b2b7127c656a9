package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func TestSoftmaxBasics(t *testing.T) {
	p := Softmax([]float64{0, 0})
	if math.Abs(p[0]-0.5) > 1e-12 || math.Abs(p[1]-0.5) > 1e-12 {
		t.Fatalf("uniform softmax %v", p)
	}
	// Stable at extreme logits.
	p = Softmax([]float64{1000, 0, -1000})
	if p[0] < 0.999 || math.IsNaN(p[2]) {
		t.Fatalf("softmax stability %v", p)
	}
	if len(Softmax(nil)) != 0 {
		t.Fatal("empty softmax")
	}
}

// Property: softmax sums to 1 and is shift-invariant.
func TestQuickSoftmaxProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		logits := make([]float64, n)
		shifted := make([]float64, n)
		c := rng.NormFloat64() * 10
		for i := range logits {
			logits[i] = rng.NormFloat64() * 5
			shifted[i] = logits[i] + c
		}
		a, b := Softmax(logits), Softmax(shifted)
		var sum float64
		for i := range a {
			sum += a[i]
			if math.Abs(a[i]-b[i]) > 1e-9 {
				return false
			}
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxCEValueKnown(t *testing.T) {
	// Uniform logits over 4 classes: loss = ln 4.
	pred := tensor.NewMatrix(1, 4)
	target := OneHot([]int{2}, 4)
	if got := (SoftmaxCE{}).Value(pred, target); math.Abs(got-math.Log(4)) > 1e-12 {
		t.Fatalf("CE got %g want %g", got, math.Log(4))
	}
	// Confident correct prediction → near-zero loss.
	pred2 := tensor.FromSlice(1, 3, []float64{-20, 20, -20})
	target2 := OneHot([]int{1}, 3)
	if got := (SoftmaxCE{}).Value(pred2, target2); got > 1e-9 {
		t.Fatalf("confident CE %g", got)
	}
}

func TestGradCheckSoftmaxCE(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	net := NewMLP(5, []int{8}, 3, rng)
	x := tensor.NewMatrix(6, 5).RandomizeNormal(rng, 1)
	y := OneHot([]int{0, 1, 2, 1, 0, 2}, 3)
	rel := GradCheck(net, x, y, SoftmaxCE{}, 1e-5)
	if rel > 1e-5 {
		t.Fatalf("softmax CE gradient check failed: %g", rel)
	}
}

func TestFitLearnsThreeClasses(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 600
	x := tensor.NewMatrix(n, 2).RandomizeNormal(rng, 1)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		switch {
		case x.At(i, 0) > 0.3:
			labels[i] = 0
		case x.At(i, 1) > 0:
			labels[i] = 1
		default:
			labels[i] = 2
		}
	}
	y := OneHot(labels, 3)
	net := NewMLP(2, []int{24}, 3, rng)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 60
	cfg.BatchSize = 64
	cfg.WeightDecay = 0
	net.Fit(x, y, SoftmaxCE{}, cfg)
	pred := net.PredictClasses(x)
	correct := 0
	for i := range labels {
		if pred[i] == labels[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(n); acc < 0.9 {
		t.Fatalf("3-class accuracy %g", acc)
	}
}

func TestPredictClassesRejectsSingleLogit(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	net := NewMLP(2, []int{4}, 1, rng)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	net.PredictClasses(tensor.NewMatrix(1, 2))
}

func TestOneHotValidation(t *testing.T) {
	m := OneHot([]int{0, 2}, 3)
	var sum float64
	for _, v := range m.Data {
		sum += v
	}
	if m.At(0, 0) != 1 || m.At(1, 2) != 1 || sum != 2 {
		t.Fatal("one-hot encoding wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range label")
		}
	}()
	OneHot([]int{3}, 3)
}

func TestInverseFrequencyWeights(t *testing.T) {
	labels := []int{0, 0, 0, 0, 0, 0, 1, 1, 2} // 6/2/1
	w := InverseFrequencyWeights(labels, 3)
	// Rarer class → larger weight, strictly ordered.
	if !(w[2] > w[1] && w[1] > w[0]) {
		t.Fatalf("ordering wrong: %v", w)
	}
	// Normalised to mean 1 over present classes.
	if math.Abs((w[0]+w[1]+w[2])/3-1) > 1e-12 {
		t.Fatalf("not mean-normalised: %v", w)
	}
	// Absent class gets weight 1.
	w4 := InverseFrequencyWeights([]int{0, 0}, 2)
	if w4[1] != 1 {
		t.Fatalf("absent class weight %g", w4[1])
	}
	if w := InverseFrequencyWeights(nil, 2); w[0] != 1 || w[1] != 1 {
		t.Fatal("empty labels")
	}
}

func TestWeightedSoftmaxCEGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	net := NewMLP(4, []int{7}, 3, rng)
	x := tensor.NewMatrix(6, 4).RandomizeNormal(rng, 1)
	labels := []int{0, 0, 0, 0, 1, 2}
	y := OneHot(labels, 3)
	loss := SoftmaxCE{ClassWeights: InverseFrequencyWeights(labels, 3)}
	if rel := GradCheck(net, x, y, loss, 1e-5); rel > 1e-5 {
		t.Fatalf("weighted CE gradient check failed: %g", rel)
	}
}

func TestClassWeightsRescueMinorityClass(t *testing.T) {
	// 95/5 imbalance with a learnable rule: unweighted training tends to
	// ignore the minority class; inverse-frequency weights must lift its
	// recall substantially.
	rng := rand.New(rand.NewSource(47))
	n := 1000
	x := tensor.NewMatrix(n, 2)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		if i%20 == 0 {
			labels[i] = 1
			x.Set(i, 0, 1.2+0.3*rng.NormFloat64())
		} else {
			x.Set(i, 0, -0.2+0.5*rng.NormFloat64())
		}
		x.Set(i, 1, rng.NormFloat64())
	}
	y := OneHot(labels, 2)
	recallMinority := func(weighted bool) float64 {
		net := NewMLP(2, []int{8}, 2, rand.New(rand.NewSource(48)))
		loss := SoftmaxCE{}
		if weighted {
			loss.ClassWeights = InverseFrequencyWeights(labels, 2)
		}
		cfg := DefaultTrainConfig()
		cfg.Epochs = 30
		cfg.BatchSize = 64
		cfg.WeightDecay = 0
		net.Fit(x, y, loss, cfg)
		pred := net.PredictClasses(x)
		hit, total := 0, 0
		for i, l := range labels {
			if l == 1 {
				total++
				if pred[i] == 1 {
					hit++
				}
			}
		}
		return float64(hit) / float64(total)
	}
	rw := recallMinority(true)
	if rw < 0.6 {
		t.Fatalf("weighted minority recall %g too low", rw)
	}
}
