package nn

import (
	"fmt"
	"math"

	"repro/internal/cpukit"
	"repro/internal/tensor"
)

// quantI8 enables the quantised-activation int8 forward path: post-ReLU
// activations are quantised to u7 bytes and hidden layers accumulate in
// int32 via the VPMADDUBSW kernel. Only worthwhile (and only enabled) when
// the AVX2 kernel is live; under KernelGeneric ArenaI8 runs the original
// dequantise-to-float32 scalar path bit-identically.
var quantI8 = cpukit.Active() == cpukit.KernelAVX2

// Reduced-precision inference (DESIGN.md §12).
//
// The float64 training stack is the bit-exact reproduction reference; the
// types here are the serving-side mirrors that trade that exactness for
// speed and footprint:
//
//   - NetworkF32 holds the weights exactly as the float32 deployment format
//     (serialize.go) stores them, so converting an in-memory model and
//     loading a serialised one produce bit-identical scorers;
//   - NetworkI8 additionally quantises each Dense layer's weights to int8
//     with one symmetric per-layer scale (activations stay float32);
//   - ArenaF32 / ArenaI8 are the forward workspaces (one holder at a time),
//     mirroring Arena's contract: zero steady-state allocations, batch and single-row
//     paths bit-identical to each other, safe to share one network across
//     any number of arenas.
//
// Both networks only support Dense/activation stacks (the paper's MLP and
// every detector this repository trains); convolutional stacks stay on the
// float64 arena.

// Activation kinds an activation layer lowers to in the fused pipeline.
const (
	actReLU = iota
	actSigmoid
	actTanh
)

// denseOpF32 is one Dense layer plus the activation layers that follow it,
// in the form the fused forward consumes: float32 weights row-major In×Out,
// float32 bias, and the bias again as float64 for the final-layer dot
// product that accumulates in float64.
type denseOpF32 struct {
	in, out int
	w       *tensor.MatrixF32
	b       []float32
	b64     []float64
	acts    []byte
}

// NetworkF32 is a trained network lowered to float32 for serving.
// Read-only once built; any number of ArenaF32 may share one.
type NetworkF32 struct {
	ops      []denseOpF32
	inDim    int
	maxWidth int
}

// lowerOps walks a Dense/activation stack and fuses each Dense with its
// trailing activations. Shared by the f32 and int8 lowerings.
func lowerOps(net *Network) ([]denseOpF32, int, int, error) {
	var ops []denseOpF32
	for _, l := range net.Layers {
		switch t := l.(type) {
		case *Dense:
			b := make([]float32, t.Out)
			b64 := make([]float64, t.Out)
			for j, v := range t.B.Data {
				b[j] = float32(v)
				b64[j] = float64(float32(v))
			}
			ops = append(ops, denseOpF32{
				in: t.In, out: t.Out,
				w: tensor.FromMatrixF32(t.W), b: b, b64: b64,
			})
		case *ReLU, *Sigmoid, *Tanh:
			if len(ops) == 0 {
				return nil, 0, 0, fmt.Errorf("nn: reduced precision: activation %s before first Dense", l.Name())
			}
			var kind byte
			switch l.(type) {
			case *ReLU:
				kind = actReLU
			case *Sigmoid:
				kind = actSigmoid
			default:
				kind = actTanh
			}
			last := &ops[len(ops)-1]
			last.acts = append(last.acts, kind)
		case *Dropout:
			// Identity at inference.
		default:
			return nil, 0, 0, fmt.Errorf("nn: reduced precision supports Dense/activation stacks only, got %T", l)
		}
	}
	if len(ops) == 0 {
		return nil, 0, 0, fmt.Errorf("nn: reduced precision: no Dense layers")
	}
	inDim := ops[0].in
	maxW := inDim
	prev := inDim
	for _, op := range ops {
		if op.in != prev {
			return nil, 0, 0, fmt.Errorf("nn: Dense(%d→%d) follows width %d", op.in, op.out, prev)
		}
		prev = op.out
		if op.out > maxW {
			maxW = op.out
		}
	}
	return ops, inDim, maxW, nil
}

// NewNetworkF32 lowers a trained float64 network to the float32 serving
// representation. The narrowing is exactly the one the deployment format
// applies on Save, so NewNetworkF32(net) and NewNetworkF32(Load(Save(net)))
// score identically bit for bit (see TestNetworkF32RoundTrip).
func NewNetworkF32(net *Network) (*NetworkF32, error) {
	ops, inDim, maxW, err := lowerOps(net)
	if err != nil {
		return nil, err
	}
	return &NetworkF32{ops: ops, inDim: inDim, maxWidth: maxW}, nil
}

// InputDim returns the feature width the network expects.
func (n *NetworkF32) InputDim() int { return n.inDim }

// SizeBytes returns the serialised float32 weight footprint.
func (n *NetworkF32) SizeBytes() int {
	total := 0
	for _, op := range n.ops {
		total += 4 * (op.in*op.out + op.out)
	}
	return total
}

// ArenaF32 is the reduced-precision counterpart of Arena: a preallocated
// per-goroutine forward workspace over a shared read-only NetworkF32.
//
// The forward pass is a fused per-row pipeline: the input row is compacted
// to its nonzero entries, each Dense layer accumulates bias + sparse
// activation × weight rows (8/4/1-wide unrolled, float32), and a trailing
// ReLU folds into the compaction for the next layer so dense activation
// vectors are never materialised. The final 1-wide logit accumulates in
// float64 (tensor.SparseRowDotColumnF64) — the one spot where accumulator
// width matters for stability — and the output sigmoid is evaluated in
// float64, so probabilities differ from the f64 reference only by the
// float32 rounding inside the hidden layers.
//
// Determinism: a row's score is a pure function of the row and the network
// — the compaction order depends only on the row's own zeros — so
// PredictProbsInto and PredictProb1 agree bit for bit for any batch shape,
// the same contract Arena keeps. Not safe for concurrent use; build one per
// worker.
type ArenaF32 struct {
	net *NetworkF32
	idx []int32
	val []float32
	buf []float32
	row []float32
}

// NewArenaF32 builds an inference arena over a lowered network.
func NewArenaF32(net *NetworkF32) *ArenaF32 {
	return &ArenaF32{
		net: net,
		idx: make([]int32, net.maxWidth),
		val: make([]float32, net.maxWidth),
		buf: make([]float32, net.maxWidth),
		row: make([]float32, net.inDim),
	}
}

// Network returns the lowered network this arena serves.
func (a *ArenaF32) Network() *NetworkF32 { return a.net }

// forwardRow runs the fused pipeline on one float64 feature row and returns
// the raw final output (the logit for a 1-wide head).
func (a *ArenaF32) forwardRow(row []float64) float64 {
	if len(row) != a.net.inDim {
		panic(fmt.Sprintf("nn: ArenaF32 got input width %d, want %d", len(row), a.net.inDim))
	}
	rf := a.row
	for i, v := range row {
		rf[i] = float32(v)
	}
	nz := tensor.CompactNonzeroF32(a.idx, a.val, rf)
	ops := a.net.ops
	for i := range ops {
		op := &ops[i]
		if i == len(ops)-1 {
			if op.out != 1 {
				panic(fmt.Sprintf("nn: ArenaF32 on %d-column output", op.out))
			}
			z := tensor.SparseRowDotColumnF64(op.w, op.b64[0], 0, a.idx[:nz], a.val[:nz])
			for _, act := range op.acts {
				switch act {
				case actReLU:
					if z < 0 {
						z = 0
					}
				case actSigmoid:
					z = SigmoidScalar(z)
				case actTanh:
					z = math.Tanh(z)
				}
			}
			return z
		}
		out := a.buf[:op.out]
		tensor.SparseRowMatMulF32Into(out, op.b, op.w, a.idx[:nz], a.val[:nz])
		if len(op.acts) == 1 && op.acts[0] == actReLU {
			// The common Dense→ReLU chain: activation fused with the
			// compaction for the next layer, one pass over the vector.
			nz = tensor.ReLUCompactF32(a.idx, a.val, out)
			continue
		}
		for _, act := range op.acts {
			applyActF32(act, out)
		}
		nz = tensor.CompactNonzeroF32(a.idx, a.val, out)
	}
	panic("nn: ArenaF32 empty network")
}

// applyActF32 runs one dense activation pass in float32.
func applyActF32(act byte, v []float32) {
	switch act {
	case actReLU:
		for j, x := range v {
			if x < 0 {
				v[j] = 0
			}
		}
	case actSigmoid:
		for j, x := range v {
			v[j] = float32(SigmoidScalar(float64(x)))
		}
	case actTanh:
		for j, x := range v {
			v[j] = float32(math.Tanh(float64(x)))
		}
	}
}

// PredictProb1 scores a single feature row, returning P(class=1) — the
// reduced-precision mirror of Arena.PredictProb1.
func (a *ArenaF32) PredictProb1(row []float64) float64 {
	return SigmoidScalar(a.forwardRow(row))
}

// PredictProbsInto runs inference on x and writes P(class=1) per row into
// dst, which must have length x.Rows. The batch path IS the row path run
// per row — batching affects only when a row is scored, never its bits.
// Zero allocations. Returns dst.
func (a *ArenaF32) PredictProbsInto(dst []float64, x *tensor.Matrix) []float64 {
	if len(dst) != x.Rows {
		panic(fmt.Sprintf("nn: ArenaF32.PredictProbsInto dst length %d != rows %d", len(dst), x.Rows))
	}
	for i := range dst {
		dst[i] = SigmoidScalar(a.forwardRow(x.Row(i)))
	}
	return dst
}

// denseOpI8 is one Dense layer quantised to int8: weights row-major In×Out,
// one symmetric scale per layer, bias kept in float32/float64 real units.
// packed is the same weights in tensor.PackI8KQuad layout, present only on
// hidden layers fed by a pure-ReLU predecessor — the layers eligible for the
// quantised-activation VPMADDUBSW path (see ArenaI8.forwardRow).
type denseOpI8 struct {
	in, out int
	w       []int8
	packed  []int8
	scale   float32
	b       []float32
	b64     []float64
	acts    []byte
}

// NetworkI8 is a trained network quantised to int8 weights with float32
// activations. Read-only once built; any number of ArenaI8 may share one.
type NetworkI8 struct {
	ops      []denseOpI8
	inDim    int
	maxWidth int
}

// NewNetworkI8 quantises a trained network: per Dense layer, scale =
// max|w|/127 over the float32-narrowed weights and w_q = round(w/scale)
// clamped to [-127, 127]. Quantising from the float32 deployment values
// (not the float64 originals) keeps the save/load round trip bit-identical,
// same as NewNetworkF32.
func NewNetworkI8(net *Network) (*NetworkI8, error) {
	ops, inDim, maxW, err := lowerOps(net)
	if err != nil {
		return nil, err
	}
	qops := make([]denseOpI8, len(ops))
	for i, op := range ops {
		maxAbs := float32(0)
		for _, v := range op.w.Data {
			if v < 0 {
				v = -v
			}
			if v > maxAbs {
				maxAbs = v
			}
		}
		scale := maxAbs / 127
		if scale == 0 {
			scale = 1 // all-zero layer: any scale dequantises zeros to zeros
		}
		q := make([]int8, len(op.w.Data))
		for j, v := range op.w.Data {
			r := math.RoundToEven(float64(v) / float64(scale))
			if r > 127 {
				r = 127
			} else if r < -127 {
				r = -127
			}
			q[j] = int8(r)
		}
		qops[i] = denseOpI8{
			in: op.in, out: op.out,
			w: q, scale: scale, b: op.b, b64: op.b64, acts: op.acts,
		}
	}
	// Pack hidden layers whose input is a pure-ReLU activation (guaranteed
	// non-negative, so quantisable to u7) for the VPMADDUBSW path. Layer 0
	// sees raw standardised features (signed) and the final layer runs the
	// float64 logit dot, so neither packs.
	for i := 1; i < len(qops)-1; i++ {
		prev := &qops[i-1]
		if len(prev.acts) == 1 && prev.acts[0] == actReLU {
			qops[i].packed = tensor.PackI8KQuad(qops[i].w, qops[i].in, qops[i].out)
		}
	}
	return &NetworkI8{ops: qops, inDim: inDim, maxWidth: maxW}, nil
}

// InputDim returns the feature width the network expects.
func (n *NetworkI8) InputDim() int { return n.inDim }

// SizeBytes returns the quantised artefact footprint: one byte per weight,
// float32 biases, and one float32 scale per layer.
func (n *NetworkI8) SizeBytes() int {
	total := 0
	for _, op := range n.ops {
		total += op.in*op.out + 4*op.out + 4
	}
	return total
}

// ArenaI8 is the int8-weight counterpart of ArenaF32. Under the generic
// kernel it runs the same fused sparse per-row pipeline, each Dense
// accumulating activation × int8 weight in float32 — slower than ArenaF32
// on scalar x86, where int8 buys only the ~4× smaller weight footprint (see
// NetworkI8.SizeBytes and DESIGN.md §12). Under the AVX2 kernel, hidden
// layers fed by ReLU instead quantise their activations to u7 bytes and
// accumulate int32 products via VPMADDUBSW over k-quad-packed weights
// (§14), which is what finally makes int8 the fastest precision. Not safe
// for concurrent use.
type ArenaI8 struct {
	net  *NetworkI8
	idx  []int32
	val  []float32
	buf  []float32
	row  []float32
	qact []uint8
	iacc []int32
}

// NewArenaI8 builds an inference arena over a quantised network.
func NewArenaI8(net *NetworkI8) *ArenaI8 {
	return &ArenaI8{
		net: net,
		idx: make([]int32, net.maxWidth),
		val: make([]float32, net.maxWidth),
		buf: make([]float32, net.maxWidth),
		row: make([]float32, net.inDim),
		// u7 activations, padded to a whole number of k-quads.
		qact: make([]uint8, (net.maxWidth+3)&^3),
		iacc: make([]int32, net.maxWidth),
	}
}

// Network returns the quantised network this arena serves.
func (a *ArenaI8) Network() *NetworkI8 { return a.net }

// forwardRow mirrors ArenaF32.forwardRow over int8 weights. Activations
// flow between layers in one of two forms: compacted sparse float32
// (idx/val, the generic pipeline) or — when quantI8 is on and the consuming
// layer is packed — dense u7 bytes in qact with the dense float32 originals
// left in buf. The final layer always reads float32 activations and
// accumulates its logit in float64.
func (a *ArenaI8) forwardRow(row []float64) float64 {
	if len(row) != a.net.inDim {
		panic(fmt.Sprintf("nn: ArenaI8 got input width %d, want %d", len(row), a.net.inDim))
	}
	rf := a.row
	for i, v := range row {
		rf[i] = float32(v)
	}
	nz := tensor.CompactNonzeroF32(a.idx, a.val, rf)
	ops := a.net.ops
	quant := false     // activations currently live in qact (+ dense buf), not idx/val
	var qscale float32 // u7 dequantisation scale of qact
	for i := range ops {
		op := &ops[i]
		if i == len(ops)-1 {
			if op.out != 1 {
				panic(fmt.Sprintf("nn: ArenaI8 on %d-column output", op.out))
			}
			// Final logit in float64: dequantised dot plus real-unit bias.
			// The layer before this one always hands off in compacted form
			// (quantisation only targets packed hidden consumers), so the
			// final dot is identical under every kernel/path combination.
			acc := 0.0
			for k, id := range a.idx[:nz] {
				acc += float64(a.val[k]) * float64(op.w[int(id)])
			}
			z := acc*float64(op.scale) + op.b64[0]
			for _, act := range op.acts {
				switch act {
				case actReLU:
					if z < 0 {
						z = 0
					}
				case actSigmoid:
					z = SigmoidScalar(z)
				case actTanh:
					z = math.Tanh(z)
				}
			}
			return z
		}
		out := a.buf[:op.out]
		if quant {
			in4 := (op.in + 3) &^ 3
			tensor.QuantMaddU7I8Into(a.iacc[:op.out], op.out, op.packed, a.qact[:in4])
			combined := op.scale * qscale
			for j := range out {
				out[j] = float32(a.iacc[j])*combined + op.b[j]
			}
		} else {
			tensor.SparseRowMatMulI8Into(out, op.b, op.w, op.out, op.scale, a.idx[:nz], a.val[:nz])
		}
		if len(op.acts) == 1 && op.acts[0] == actReLU {
			if quantI8 && i+1 < len(ops)-1 && ops[i+1].packed != nil {
				// Next layer takes the VPMADDUBSW path: ReLU densely in
				// place, quantise to u7, zero the k-quad padding bytes.
				for j, v := range out {
					if v < 0 {
						out[j] = 0
					}
				}
				qscale = tensor.QuantizeU7F32Into(a.qact[:op.out], out)
				for j := op.out; j < (op.out+3)&^3; j++ {
					a.qact[j] = 0
				}
				quant = true
				continue
			}
			nz = tensor.ReLUCompactF32(a.idx, a.val, out)
			quant = false
			continue
		}
		for _, act := range op.acts {
			applyActF32(act, out)
		}
		nz = tensor.CompactNonzeroF32(a.idx, a.val, out)
		quant = false
	}
	panic("nn: ArenaI8 empty network")
}

// PredictProb1 scores a single feature row, returning P(class=1).
func (a *ArenaI8) PredictProb1(row []float64) float64 {
	return SigmoidScalar(a.forwardRow(row))
}

// PredictProbsInto runs inference on x and writes P(class=1) per row into
// dst (len = x.Rows); the batch path is the row path run per row. Returns
// dst.
func (a *ArenaI8) PredictProbsInto(dst []float64, x *tensor.Matrix) []float64 {
	if len(dst) != x.Rows {
		panic(fmt.Sprintf("nn: ArenaI8.PredictProbsInto dst length %d != rows %d", len(dst), x.Rows))
	}
	for i := range dst {
		dst[i] = SigmoidScalar(a.forwardRow(x.Row(i)))
	}
	return dst
}
