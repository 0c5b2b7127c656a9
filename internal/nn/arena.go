package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Arena is a preallocated forward-pass workspace for inference on one
// trained Network. The plain inference path (Forward with train=false)
// allocates a fresh output matrix per layer per call so that it is safe from
// any number of goroutines; at a 20 Hz streaming rate — or thousands of
// requests per second through the serving engine — that garbage
// dominates the actual arithmetic. An Arena instead owns one scratch matrix
// per layer, keyed by that layer's output shape, and re-runs every pass
// through them: after the first call at a given batch size a steady-state
// forward performs zero heap allocations (see TestArenaZeroAlloc).
//
// For the 1×N single-sample case the stream runtime hits on every frame,
// Arena additionally provides a fused fast path (PredictProb1) that runs the
// whole Dense/activation stack over raw []float64 ping-pong buffers with no
// tensor.Matrix wrapping at all.
//
// Determinism: every arena path produces output bit-identical to the
// allocating Forward/PredictProbs path — the matmul accumulation order and
// the elementwise activation arithmetic are exactly the same, only the
// destination memory differs. TestArenaBitIdentical enforces this.
//
// An Arena is NOT safe for concurrent use: one goroutine holds it at a time
// (the serving engine lends each of its arenas to one caller at a time). The underlying Network's weights are
// only read, so any number of arenas may share one trained network, and
// arena inference may run concurrently with the allocating inference path.
// Do not run training on the network while arenas are in flight.
type Arena struct {
	net     *Network
	scratch []*tensor.Matrix // one per layer; nil until first used

	// Fused single-sample path: two ping-pong vectors sized to the widest
	// layer output, plus a flag for whether the stack is fusable at all.
	vecA, vecB []float64
	fusable    bool
	// row1 backs the non-fusable PredictProb1 fallback (1×N wrapper).
	row1 *tensor.Matrix
}

// NewArena builds an inference arena for net. The scratch matrices are
// grown lazily on first use, so an arena for a large network is cheap until
// exercised.
func NewArena(net *Network) *Arena {
	a := &Arena{
		net:     net,
		scratch: make([]*tensor.Matrix, len(net.Layers)),
		fusable: true,
	}
	width := net.InputDim()
	maxW := width
	for _, l := range net.Layers {
		switch t := l.(type) {
		case *Dense:
			width = t.Out
		case *ReLU, *Sigmoid, *Tanh, *Dropout:
			// Elementwise or identity: width unchanged.
		default:
			// Conv1D, MaxPool1D, or user layers: the fused vector path does
			// not understand them; fall back to the matrix path.
			a.fusable = false
			width = -1
		}
		if width > maxW {
			maxW = width
		}
	}
	if a.fusable {
		a.vecA = make([]float64, maxW)
		a.vecB = make([]float64, maxW)
	}
	return a
}

// Network returns the network this arena serves.
func (a *Arena) Network() *Network { return a.net }

// Forward runs an inference pass (train=false semantics) through the arena
// scratch, returning the output matrix. The returned matrix aliases arena
// storage and is overwritten by the next call — callers must consume it (or
// copy it out) first. Zero heap allocations once the per-layer scratch has
// grown to the largest batch size seen.
func (a *Arena) Forward(x *tensor.Matrix) *tensor.Matrix {
	cur := x
	for i, l := range a.net.Layers {
		switch t := l.(type) {
		case *Dense:
			if cur.Cols != t.In {
				panic(fmt.Sprintf("nn: Dense(%d→%d) got input width %d", t.In, t.Out, cur.Cols))
			}
			a.scratch[i] = tensor.EnsureShape(a.scratch[i], cur.Rows, t.Out)
			// Serial matmul: the arena's holder (a serving-engine caller, a
			// stream loop) is the unit of parallelism; fanning out here would
			// oversubscribe cores and allocate, breaking the zero-alloc
			// guarantee. Bit-identical to the parallel path.
			out := tensor.MatMulSerial(a.scratch[i], cur, t.W)
			out.AddRowVector(t.B.Data)
			cur = out
		case *ReLU:
			a.scratch[i] = tensor.EnsureShape(a.scratch[i], cur.Rows, cur.Cols)
			out := a.scratch[i]
			for j, v := range cur.Data {
				if v > 0 {
					out.Data[j] = v
				} else {
					out.Data[j] = 0
				}
			}
			cur = out
		case *Sigmoid:
			a.scratch[i] = tensor.EnsureShape(a.scratch[i], cur.Rows, cur.Cols)
			out := a.scratch[i]
			for j, v := range cur.Data {
				out.Data[j] = SigmoidScalar(v)
			}
			cur = out
		case *Tanh:
			a.scratch[i] = tensor.EnsureShape(a.scratch[i], cur.Rows, cur.Cols)
			out := a.scratch[i]
			for j, v := range cur.Data {
				out.Data[j] = math.Tanh(v)
			}
			cur = out
		case *Dropout:
			// Identity at inference; no scratch needed.
		default:
			// Unknown layer: use its own (allocating) inference path. The
			// arena still saves the allocations of every known layer.
			cur = l.Forward(cur, false)
		}
	}
	return cur
}

// PredictProbsInto runs inference on x and writes P(class=1) per row into
// dst, which must have length x.Rows. The network must have a single output
// column. Returns dst. Zero-allocation in steady state.
func (a *Arena) PredictProbsInto(dst []float64, x *tensor.Matrix) []float64 {
	if len(dst) != x.Rows {
		panic(fmt.Sprintf("nn: Arena.PredictProbsInto dst length %d != rows %d", len(dst), x.Rows))
	}
	out := a.Forward(x)
	if out.Cols != 1 {
		panic(fmt.Sprintf("nn: Arena.PredictProbsInto on %d-column output", out.Cols))
	}
	for i := range dst {
		dst[i] = SigmoidScalar(out.Data[i])
	}
	return dst
}

// PredictProb1 scores a single feature row, returning P(class=1) — the
// fused fast path for the 1×N case. When the network is a pure
// Dense/activation stack the whole pass runs over two raw float64 buffers
// (tensor.RowMatMulInto per Dense, scalar activations in between) with no
// matrix bookkeeping; otherwise it falls back to the matrix arena path. The
// result is bit-identical to PredictProbs on the same row either way.
// len(row) must equal the network input width.
func (a *Arena) PredictProb1(row []float64) float64 {
	if !a.fusable {
		a.row1 = tensor.EnsureShape(a.row1, 1, len(row))
		copy(a.row1.Data, row)
		out := a.Forward(a.row1)
		if out.Cols != 1 {
			panic(fmt.Sprintf("nn: Arena.PredictProb1 on %d-column output", out.Cols))
		}
		return SigmoidScalar(out.Data[0])
	}
	cur := row
	buf, next := a.vecA, a.vecB
	for _, l := range a.net.Layers {
		switch t := l.(type) {
		case *Dense:
			if len(cur) != t.In {
				panic(fmt.Sprintf("nn: Dense(%d→%d) got input width %d", t.In, t.Out, len(cur)))
			}
			out := buf[:t.Out]
			tensor.RowMatMulInto(out, cur, t.W, t.B.Data)
			cur = out
			buf, next = next, buf
		case *ReLU:
			out := buf[:len(cur)]
			for j, v := range cur {
				if v > 0 {
					out[j] = v
				} else {
					out[j] = 0
				}
			}
			cur = out
			buf, next = next, buf
		case *Sigmoid:
			out := buf[:len(cur)]
			for j, v := range cur {
				out[j] = SigmoidScalar(v)
			}
			cur = out
			buf, next = next, buf
		case *Tanh:
			out := buf[:len(cur)]
			for j, v := range cur {
				out[j] = math.Tanh(v)
			}
			cur = out
			buf, next = next, buf
		case *Dropout:
			// Identity at inference.
		}
	}
	if len(cur) != 1 {
		panic(fmt.Sprintf("nn: Arena.PredictProb1 on %d-column output", len(cur)))
	}
	return SigmoidScalar(cur[0])
}
