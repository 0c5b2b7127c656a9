package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Loss computes a scalar loss over a batch and the gradient of the mean loss
// with respect to the network output.
type Loss interface {
	// Value returns the mean loss over the batch.
	Value(pred, target *tensor.Matrix) float64
	// Grad computes ∂(mean loss)/∂pred into dst (allocating when dst is
	// nil, mirroring tensor.MatMul) and returns it. dst lets the training
	// loop reuse one gradient buffer across batches instead of allocating
	// per step; it must not alias pred or target.
	Grad(dst, pred, target *tensor.Matrix) *tensor.Matrix
}

func mustLossShapes(pred, target *tensor.Matrix, name string) {
	if !pred.SameShape(target) {
		panic(fmt.Sprintf("nn: %s shape mismatch %dx%d vs %dx%d",
			name, pred.Rows, pred.Cols, target.Rows, target.Cols))
	}
}

// gradDst resolves the dst argument of Loss.Grad: nil allocates, anything
// else must already match pred's shape.
func gradDst(dst, pred *tensor.Matrix, name string) *tensor.Matrix {
	if dst == nil {
		return tensor.NewMatrix(pred.Rows, pred.Cols)
	}
	if !dst.SameShape(pred) {
		panic(fmt.Sprintf("nn: %s dst shape %dx%d, pred %dx%d",
			name, dst.Rows, dst.Cols, pred.Rows, pred.Cols))
	}
	return dst
}

// BCEWithLogits fuses a sigmoid with binary cross-entropy (paper eq. 4) for
// numerical stability: the network's last Dense layer emits raw logits and
// this loss handles the rest. The gradient w.r.t. logits is (σ(z) - y)/n,
// which avoids both saturation and log(0).
type BCEWithLogits struct{}

// Value implements Loss using the log-sum-exp stable formulation
// max(z,0) - z·y + log(1 + e^{-|z|}).
func (BCEWithLogits) Value(pred, target *tensor.Matrix) float64 {
	mustLossShapes(pred, target, "BCEWithLogits")
	if len(pred.Data) == 0 {
		return 0
	}
	var s float64
	for i, z := range pred.Data {
		y := target.Data[i]
		s += math.Max(z, 0) - z*y + math.Log1p(math.Exp(-math.Abs(z)))
	}
	return s / float64(len(pred.Data))
}

// Grad implements Loss.
func (BCEWithLogits) Grad(dst, pred, target *tensor.Matrix) *tensor.Matrix {
	mustLossShapes(pred, target, "BCEWithLogits")
	out := gradDst(dst, pred, "BCEWithLogits")
	inv := 1.0
	if len(pred.Data) > 0 {
		inv = 1 / float64(len(pred.Data))
	}
	for i, z := range pred.Data {
		out.Data[i] = (SigmoidScalar(z) - target.Data[i]) * inv
	}
	return out
}

// MSE is mean squared error, used for the humidity/temperature regression
// of §V-D ("minimization of a squared error objective").
type MSE struct{}

// Value implements Loss.
func (MSE) Value(pred, target *tensor.Matrix) float64 {
	mustLossShapes(pred, target, "MSE")
	if len(pred.Data) == 0 {
		return 0
	}
	var s float64
	for i, p := range pred.Data {
		d := p - target.Data[i]
		s += d * d
	}
	return s / float64(len(pred.Data))
}

// Grad implements Loss.
func (MSE) Grad(dst, pred, target *tensor.Matrix) *tensor.Matrix {
	mustLossShapes(pred, target, "MSE")
	out := gradDst(dst, pred, "MSE")
	inv := 1.0
	if len(pred.Data) > 0 {
		inv = 2 / float64(len(pred.Data))
	}
	for i, p := range pred.Data {
		out.Data[i] = (p - target.Data[i]) * inv
	}
	return out
}
