package nn

import (
	"math"

	"repro/internal/tensor"
)

// AdamW implements Adam with decoupled weight decay (Loshchilov & Hutter,
// the paper's reference [23]): the decay is applied directly to the weights
// rather than folded into the adaptive gradient statistics.
type AdamW struct {
	LR          float64
	Beta1       float64 // default 0.9
	Beta2       float64 // default 0.999
	Eps         float64 // default 1e-8
	WeightDecay float64

	t int
	m [][]float64
	v [][]float64
}

// NewAdamW returns an AdamW optimiser with the standard β/ε defaults.
func NewAdamW(lr, weightDecay float64) *AdamW {
	return &AdamW{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, WeightDecay: weightDecay}
}

// Step applies one update. params and grads are parallel slices collected
// across all layers.
func (a *AdamW) Step(params, grads []*tensor.Matrix) {
	if a.m == nil {
		a.m = make([][]float64, len(params))
		a.v = make([][]float64, len(params))
		for i, p := range params {
			a.m[i] = make([]float64, len(p.Data))
			a.v[i] = make([]float64, len(p.Data))
		}
	}
	a.t++
	b1, b2 := a.Beta1, a.Beta2
	// Bias-correction folded into the step size.
	c1 := 1 - math.Pow(b1, float64(a.t))
	c2 := 1 - math.Pow(b2, float64(a.t))
	step := a.LR * math.Sqrt(c2) / c1
	for i, p := range params {
		g := grads[i]
		mi, vi := a.m[i], a.v[i]
		for j := range p.Data {
			gj := g.Data[j]
			mi[j] = b1*mi[j] + (1-b1)*gj
			vi[j] = b2*vi[j] + (1-b2)*gj*gj
			// Decoupled decay: shrink the weight, then apply Adam.
			p.Data[j] -= a.LR * a.WeightDecay * p.Data[j]
			p.Data[j] -= step * mi[j] / (math.Sqrt(vi[j]) + a.Eps)
		}
	}
}

// ClipGradNorm rescales all gradients so their global L2 norm does not
// exceed maxNorm, a standard guard against the exploding-gradient problem
// the paper mentions. Returns the pre-clip norm.
func ClipGradNorm(grads []*tensor.Matrix, maxNorm float64) float64 {
	var total float64
	for _, g := range grads {
		for _, v := range g.Data {
			total += v * v
		}
	}
	norm := math.Sqrt(total)
	if norm > maxNorm && norm > 0 {
		scale := maxNorm / norm
		for _, g := range grads {
			g.Scale(scale)
		}
	}
	return norm
}
