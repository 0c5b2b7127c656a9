package nn

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/tensor"
)

// Network is an ordered stack of layers trained with backpropagation.
type Network struct {
	Layers []Layer

	// capture state for explainability (see ForwardBackwardCapture).
	captureActs  []*tensor.Matrix
	captureGrads []*tensor.Matrix
}

// NewNetwork builds a network from the given layers.
func NewNetwork(layers ...Layer) *Network { return &Network{Layers: layers} }

// NewMLP constructs the paper's MLP topology: Dense/ReLU blocks for each
// hidden width and a final Dense without activation (logit output for
// classification under BCEWithLogits, linear output for regression).
// hidden is e.g. [128, 256, 128] for the 4-dense-layer net of §IV-B.
func NewMLP(in int, hidden []int, out int, rng *rand.Rand) *Network {
	var layers []Layer
	prev := in
	for _, h := range hidden {
		layers = append(layers, NewDense(prev, h, rng), NewReLU())
		prev = h
	}
	layers = append(layers, NewDense(prev, out, rng))
	return NewNetwork(layers...)
}

// Forward runs the full stack. train selects training behaviour (caching
// for Backward, scratch reuse).
func (n *Network) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	for _, l := range n.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward propagates grad (∂L/∂output) through the stack, accumulating
// parameter gradients, and returns ∂L/∂input.
func (n *Network) Backward(grad *tensor.Matrix) *tensor.Matrix {
	for i := len(n.Layers) - 1; i >= 0; i-- {
		grad = n.Layers[i].Backward(grad)
	}
	return grad
}

// backwardParams is Backward for a training step: it fills every layer's
// parameter gradients and stops before the first layer's input gradient,
// which nothing in training reads — for a Dense first layer that is one
// matmul (and one scratch matrix) fewer per batch.
func (n *Network) backwardParams(grad *tensor.Matrix) {
	if len(n.Layers) == 0 {
		return
	}
	for i := len(n.Layers) - 1; i > 0; i-- {
		grad = n.Layers[i].Backward(grad)
	}
	if d, ok := n.Layers[0].(*Dense); ok {
		d.paramGrads(grad)
		return
	}
	n.Layers[0].Backward(grad)
}

// Params returns all trainable parameters in layer order.
func (n *Network) Params() []*tensor.Matrix {
	var out []*tensor.Matrix
	for _, l := range n.Layers {
		out = append(out, l.Params()...)
	}
	return out
}

// Grads returns all gradients aligned with Params.
func (n *Network) Grads() []*tensor.Matrix {
	var out []*tensor.Matrix
	for _, l := range n.Layers {
		out = append(out, l.Grads()...)
	}
	return out
}

// NumParams returns the total number of trainable scalars.
func (n *Network) NumParams() int {
	total := 0
	for _, p := range n.Params() {
		total += len(p.Data)
	}
	return total
}

// SizeBytes returns the serialised weight footprint assuming the given
// element width in bytes (4 for the float32 deployment format discussed in
// §IV-B, 8 for the in-memory float64 weights).
func (n *Network) SizeBytes(elemBytes int) int { return n.NumParams() * elemBytes }

// String renders the architecture, e.g. "dense(64→128)-relu-...".
func (n *Network) String() string {
	var parts []string
	for _, l := range n.Layers {
		if d, ok := l.(*Dense); ok {
			parts = append(parts, fmt.Sprintf("dense(%d→%d)", d.In, d.Out))
		} else {
			parts = append(parts, l.Name())
		}
	}
	return strings.Join(parts, "-")
}

// InputDim returns the width the network expects, derived from the first
// parameterised layer (0 if there is none).
func (n *Network) InputDim() int {
	for _, l := range n.Layers {
		switch t := l.(type) {
		case *Dense:
			return t.In
		case *Conv1D:
			return t.InC * t.L
		}
	}
	return 0
}

// OutputDim returns the width the network emits, from the last Dense layer.
func (n *Network) OutputDim() int {
	for i := len(n.Layers) - 1; i >= 0; i-- {
		if d, ok := n.Layers[i].(*Dense); ok {
			return d.Out
		}
	}
	return 0
}

// PredictProbs runs inference on x and applies a sigmoid to the single
// logit column, returning P(class=1) per row.
func (n *Network) PredictProbs(x *tensor.Matrix) []float64 {
	return n.PredictProbsInto(make([]float64, x.Rows), x)
}

// PredictProbsInto is PredictProbs writing into a caller-owned slice of
// length x.Rows, for hot callers that score repeatedly and do not want a
// fresh probs allocation per call (the per-layer forward allocations remain;
// use an Arena to eliminate those too). Returns dst.
func (n *Network) PredictProbsInto(dst []float64, x *tensor.Matrix) []float64 {
	if len(dst) != x.Rows {
		panic(fmt.Sprintf("nn: PredictProbsInto dst length %d != rows %d", len(dst), x.Rows))
	}
	out := n.Forward(x, false)
	if out.Cols != 1 {
		panic(fmt.Sprintf("nn: PredictProbs on %d-column output", out.Cols))
	}
	for i := range dst {
		dst[i] = SigmoidScalar(out.Data[i])
	}
	return dst
}

// PredictBinary thresholds PredictProbs at 0.5.
func (n *Network) PredictBinary(x *tensor.Matrix) []int {
	return n.PredictBinaryInto(make([]int, x.Rows), make([]float64, x.Rows), x)
}

// PredictBinaryInto is PredictBinary writing into caller-owned slices (dst
// for labels, probs as scratch for the sigmoid outputs), both of length
// x.Rows. Returns dst.
func (n *Network) PredictBinaryInto(dst []int, probs []float64, x *tensor.Matrix) []int {
	if len(dst) != x.Rows {
		panic(fmt.Sprintf("nn: PredictBinaryInto dst length %d != rows %d", len(dst), x.Rows))
	}
	n.PredictProbsInto(probs, x)
	for i, p := range probs {
		if p >= 0.5 {
			dst[i] = 1
		} else {
			dst[i] = 0
		}
	}
	return dst
}

// PredictRegression runs inference and returns the raw (linear) outputs,
// one slice per output column.
func (n *Network) PredictRegression(x *tensor.Matrix) [][]float64 {
	out := n.Forward(x, false)
	cols := make([][]float64, out.Cols)
	for c := range cols {
		col := make([]float64, out.Rows)
		for r := 0; r < out.Rows; r++ {
			col[r] = out.At(r, c)
		}
		cols[c] = col
	}
	return cols
}

// CaptureResult holds per-layer activations and the gradients that flowed
// into them during a capture pass; index k corresponds to the *output* of
// layer k. Index -1 (fields InputAct/InputGrad) corresponds to the network
// input. This is exactly the (A_d^{(k)}, ∂y^c/∂A_d^{(k)}) pairing Grad-CAM
// (paper eq. 5–6) needs.
type CaptureResult struct {
	InputAct  *tensor.Matrix
	InputGrad *tensor.Matrix
	Acts      []*tensor.Matrix // len == len(Layers)
	Grads     []*tensor.Matrix // len == len(Layers)
	Output    *tensor.Matrix
}

// ForwardBackwardCapture runs a forward pass recording every intermediate
// activation, then backpropagates outGrad (typically a one-hot selector on
// the class logit) recording the gradient arriving at every activation.
// Parameter gradients are clobbered; callers doing this mid-training must
// re-run their own backward pass afterwards.
func (n *Network) ForwardBackwardCapture(x *tensor.Matrix, outGrad *tensor.Matrix) *CaptureResult {
	res := &CaptureResult{
		InputAct: x,
		Acts:     make([]*tensor.Matrix, len(n.Layers)),
		Grads:    make([]*tensor.Matrix, len(n.Layers)),
	}
	cur := x
	for i, l := range n.Layers {
		cur = l.Forward(cur, true)
		res.Acts[i] = cur
	}
	res.Output = cur
	grad := outGrad
	for i := len(n.Layers) - 1; i >= 0; i-- {
		res.Grads[i] = grad // gradient w.r.t. the output of layer i
		grad = n.Layers[i].Backward(grad)
	}
	// Shift: Grads[i] currently holds ∂y/∂(output of layer i). Keep that
	// convention and also expose the input gradient.
	res.InputGrad = grad
	return res
}
