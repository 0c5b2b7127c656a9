// Package nn is a small, dependency-free neural-network library: the layers
// some model in the tree builds (Dense, ReLU, Conv1D, MaxPool1D), BCE, MSE
// and softmax cross-entropy losses, the AdamW optimiser, a mini-batch
// training loop, binary model serialisation, the serving lowering (Lower,
// Arena) and gradient checking. It implements exactly what the
// paper's PyTorch-Lightning MLP needs (4 dense layers, ReLU, BCE, AdamW-style
// "adaptive mini-batch gradient descent with a weight decay strategy"),
// plus the hidden-activation and hidden-gradient capture that Grad-CAM
// (internal/xai) requires.
package nn

import (
	"fmt"
	"math/rand"

	"repro/internal/tensor"
)

// Layer is one differentiable stage of a network. Forward consumes a batch
// (rows = samples) and returns the batch output; Backward consumes ∂L/∂out
// and returns ∂L/∂in, accumulating parameter gradients internally.
//
// Concurrency/aliasing contract: with train=true a layer may return a
// reference to an internal scratch buffer that is overwritten by its next
// training Forward/Backward, so a network must not be trained from two
// goroutines at once and training outputs must be consumed before the next
// step. With train=false layers allocate fresh outputs and touch no mutable
// state, so inference on a shared trained network is safe from many
// goroutines concurrently — the property the parallel experiment engine
// uses to fan fold evaluation out per cell.
type Layer interface {
	// Forward computes the layer output for input x. When train is true
	// the layer may cache values needed by Backward, reuse internal
	// scratch buffers.
	Forward(x *tensor.Matrix, train bool) *tensor.Matrix
	// Backward propagates the gradient. Must be called after a Forward
	// with train=true.
	Backward(grad *tensor.Matrix) *tensor.Matrix
	// Params returns the trainable parameter matrices (nil-able slice).
	Params() []*tensor.Matrix
	// Grads returns the gradient matrices aligned with Params.
	Grads() []*tensor.Matrix
	// Name identifies the layer type for serialisation and printing.
	Name() string
}

// Dense is a fully connected layer: out = x·W + b, with W of shape in×out.
type Dense struct {
	In, Out int
	W       *tensor.Matrix // In×Out
	B       *tensor.Matrix // 1×Out
	GradW   *tensor.Matrix
	GradB   *tensor.Matrix

	input *tensor.Matrix // cached for backward
	// Training scratch, reused across steps once the batch shape settles.
	fwdOut *tensor.Matrix
	bwdDx  *tensor.Matrix
}

// NewDense creates a Dense layer with Kaiming-uniform weights and zero bias.
func NewDense(in, out int, rng *rand.Rand) *Dense {
	d := newDense(in, out)
	d.W.KaimingInit(rng, in)
	return d
}

// newDense allocates a Dense layer with zero weights and bias, for Load to
// fill.
func newDense(in, out int) *Dense {
	return &Dense{
		In: in, Out: out,
		W:     tensor.NewMatrix(in, out),
		B:     tensor.NewMatrix(1, out),
		GradW: tensor.NewMatrix(in, out),
		GradB: tensor.NewMatrix(1, out),
	}
}

// Forward computes x·W + b for a batch x (n×In).
func (d *Dense) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	if x.Cols != d.In {
		panic(fmt.Sprintf("nn: Dense(%d→%d) got input width %d", d.In, d.Out, x.Cols))
	}
	if !train {
		// No writes to d here: inference must stay concurrent-safe.
		out := tensor.MatMul(nil, x, d.W)
		out.AddRowVector(d.B.Data)
		return out
	}
	d.input = x
	d.fwdOut = tensor.EnsureShape(d.fwdOut, x.Rows, d.Out)
	out := tensor.MatMul(d.fwdOut, x, d.W)
	out.AddRowVector(d.B.Data)
	return out
}

// Backward computes parameter gradients and returns ∂L/∂x = grad·Wᵀ.
func (d *Dense) Backward(grad *tensor.Matrix) *tensor.Matrix {
	d.paramGrads(grad)
	d.bwdDx = tensor.EnsureShape(d.bwdDx, grad.Rows, d.In)
	return tensor.MatMulABT(d.bwdDx, grad, d.W)
}

// paramGrads is Backward without the input gradient: dW = xᵀ·grad and
// db = column sums of grad. Training's first layer stops here (see
// Network.backwardParams).
func (d *Dense) paramGrads(grad *tensor.Matrix) {
	if d.input == nil {
		panic("nn: Dense.Backward without a training Forward")
	}
	tensor.MatMulATB(d.GradW, d.input, grad)
	gb := d.GradB.Data[:grad.Cols]
	for j := range gb {
		gb[j] = 0
	}
	for i := 0; i < grad.Rows; i++ {
		row := grad.Data[i*len(gb) : i*len(gb)+len(gb)]
		for j := range gb {
			gb[j] += row[j]
		}
	}
}

// Params returns [W, B].
func (d *Dense) Params() []*tensor.Matrix { return []*tensor.Matrix{d.W, d.B} }

// Grads returns [GradW, GradB].
func (d *Dense) Grads() []*tensor.Matrix { return []*tensor.Matrix{d.GradW, d.GradB} }

// Name implements Layer.
func (d *Dense) Name() string { return "dense" }

func (d *Dense) dropScratch() { d.input, d.fwdOut, d.bwdDx = nil, nil, nil }
