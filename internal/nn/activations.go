package nn

import (
	"math"
	"math/bits"

	"repro/internal/tensor"
)

// Activation scratch-buffer note: in training mode every activation writes
// its output (and backward gradient) into per-layer scratch matrices that
// are reused across batches, so a full forward/backward step allocates
// nothing once shapes settle. Every element is overwritten on each pass —
// stale scratch contents can never leak into a result. Inference
// (train=false) allocates fresh outputs and is safe for concurrent use; see
// the Layer contract.

// ReLU is the rectified linear activation max(0, x).
type ReLU struct {
	input  *tensor.Matrix
	fwdOut *tensor.Matrix
	bwdDx  *tensor.Matrix
}

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// positiveMask is all ones when v > 0 and zero otherwise, for every bit
// pattern, without a branch. Read as an unsigned integer, v's bits lie in
// [1, +Inf's bits] exactly when v > 0: +0 is below that range, and a
// positive NaN is above it, as is everything with the sign bit set (−0,
// negatives, negative NaNs). bits−1 < +Inf's bits is that range test, and
// bits.Sub64 returns its borrow as 0 or 1. A data-dependent `if v > 0`
// mispredicts on about half of a layer's activations; the mask costs the
// same for all of them.
func positiveMask(v float64) uint64 {
	_, borrow := bits.Sub64(math.Float64bits(v)-1, 0x7FF0000000000000, 0)
	return -borrow
}

// Forward implements Layer: v where v > 0, else +0.
func (r *ReLU) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	var out *tensor.Matrix
	if train {
		r.input = x
		r.fwdOut = tensor.EnsureShape(r.fwdOut, x.Rows, x.Cols)
		out = r.fwdOut
	} else {
		// No writes to r here: inference must stay concurrent-safe.
		out = tensor.NewMatrix(x.Rows, x.Cols)
	}
	dst := out.Data[:len(x.Data)]
	for i, v := range x.Data {
		dst[i] = math.Float64frombits(math.Float64bits(v) & positiveMask(v))
	}
	return out
}

// Backward implements Layer: passes gradient where the input was positive
// and +0 elsewhere.
func (r *ReLU) Backward(grad *tensor.Matrix) *tensor.Matrix {
	if r.input == nil {
		panic("nn: ReLU.Backward without a training Forward")
	}
	if !grad.SameShape(r.input) {
		panic("nn: ReLU.Backward gradient shape differs from its input's")
	}
	r.bwdDx = tensor.EnsureShape(r.bwdDx, grad.Rows, grad.Cols)
	in := r.input.Data
	dst, g := r.bwdDx.Data[:len(in)], grad.Data[:len(in)]
	for i, v := range in {
		dst[i] = math.Float64frombits(math.Float64bits(g[i]) & positiveMask(v))
	}
	return r.bwdDx
}

// Params implements Layer.
func (r *ReLU) Params() []*tensor.Matrix { return nil }

// Grads implements Layer.
func (r *ReLU) Grads() []*tensor.Matrix { return nil }

// Name implements Layer.
func (r *ReLU) Name() string { return "relu" }

func (r *ReLU) dropScratch() { r.input, r.fwdOut, r.bwdDx = nil, nil, nil }

// SigmoidScalar evaluates the logistic function at x.
func SigmoidScalar(x float64) float64 {
	// Split by sign for numerical stability.
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}
