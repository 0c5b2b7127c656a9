package nn

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/cpukit"
	"repro/internal/tensor"
)

// Serving-side inference (DESIGN.md §9, §12). Lower turns a trained
// Dense/ReLU stack into a Program: one op per Dense layer, carrying that
// layer's weights in the program's precision and whether a ReLU follows it.
// An Arena is one holder's scratch over a shared Program. Its forwardRow
// runs the ops in order, switching on each op's kernel, and both
// entry points — PredictProb1 and PredictProbsInto — are that row path, so a
// row's score is a pure function of the row and the program at every
// precision: batching, arena count and concurrency decide when a row is
// scored, never its bits.
//
// The float64 program is the bit-exact reproduction reference: it runs
// tensor.RowMatMulInto, whose accumulation is MatMul's own row loop, and
// ReLU.Forward's arithmetic, so it matches Network.PredictProbs bit
// for bit (TestArenaBitIdentical). The float32 and int8 programs trade that
// exactness for speed and footprint inside the divergence bounds core
// enforces.

// Precision is the arithmetic a Program scores in.
type Precision string

const (
	// F64 serves the network's own float64 weights.
	F64 Precision = "f64"
	// F32 narrows the weights to float32 exactly as the deployment format
	// (serialize.go) stores them and runs the sparse-compaction kernels.
	F32 Precision = "f32"
	// I8 quantises each layer's float32 weights to int8 with one symmetric
	// per-layer scale; activations stay float32.
	I8 Precision = "int8"
)

// quantI8 enables the quantised-activation int8 path: post-ReLU activations
// are quantised to u7 bytes and hidden layers accumulate in int32 via the
// VPMADDUBSW kernel. Only worthwhile (and only enabled) when the AVX2 kernel
// is live; under KernelGeneric every int8 layer runs the dequantise-to-
// float32 scalar path.
var quantI8 = cpukit.Active() == cpukit.KernelAVX2

// Op kernels: what forwardRow runs for one op.
const (
	kernF64      = iota // dense float64 row·W + b, then the float64 ReLU
	kernF32             // compacted float32 activations · float32 W
	kernI8              // compacted float32 activations · int8 W
	kernI8Quant         // u7 activations · k-quad-packed int8 W (VPMADDUBSW)
	kernLogitF32        // the 1-wide float32 head, logit accumulated in float64
	kernLogitI8         // the 1-wide int8 head, logit accumulated in float64
)

// op is one Dense layer and whether a ReLU follows it, holding
// the weights its kernel reads: w64 for kernF64; w32 and b32 for the float32
// kernels; w8, scale and b32 for the int8 ones, plus packed (w8 in
// tensor.PackI8KQuad layout) for kernI8Quant. b64 is the bias in float64 —
// the layer's own at f64, its float32 narrowing for the reduced heads.
type op struct {
	kernel  byte
	in, out int
	relu    bool
	b64     []float64
	w64     *tensor.Matrix
	w32     *tensor.MatrixF32
	b32     []float32
	w8      []int8
	packed  []int8
	scale   float32
}

// Program is a trained network lowered for serving at one precision.
// Read-only once built; any number of Arenas may share one.
type Program struct {
	prec     Precision
	ops      []op
	inDim    int
	maxWidth int
}

// Lower builds the serving program for net at precision p. It accepts
// exactly what an Arena can score: Dense layers, each optionally followed by
// ReLU, whose widths chain from the first Dense's input into a one-column
// head. Anything else — a convolution, a ReLU before the first Dense, a
// Dense whose input is not its predecessor's output, a wider head, no Dense
// at all, an unknown precision — is an error here instead of a panic on the
// first row.
//
// The f32 and int8 weights are narrowed exactly as the deployment format
// narrows them on Save, so Lower(net, p) and Lower(Load(Save(net)), p) score
// bit-identically (TestNetworkF32RoundTrip). Int8 quantises per layer
// from the float32 values: scale = max|w|/127 and w_q = round(w/scale)
// clamped to [-127, 127].
func Lower(net *Network, p Precision) (*Program, error) {
	if p != F64 && p != F32 && p != I8 {
		return nil, fmt.Errorf("nn: unknown precision %q (want f64, f32 or int8)", p)
	}
	var ops []op
	for _, l := range net.Layers {
		switch t := l.(type) {
		case *Dense:
			if n := len(ops); n > 0 && ops[n-1].out != t.In {
				return nil, fmt.Errorf("nn: Dense(%d→%d) follows width %d", t.In, t.Out, ops[n-1].out)
			}
			ops = append(ops, lowerDense(t, p))
		case *ReLU:
			if len(ops) == 0 {
				return nil, errors.New("nn: relu before the first Dense")
			}
			ops[len(ops)-1].relu = true
		default:
			return nil, fmt.Errorf("nn: cannot serve a %s layer: only Dense/ReLU stacks lower", l.Name())
		}
	}
	if len(ops) == 0 {
		return nil, errors.New("nn: no Dense layers to serve")
	}
	last := len(ops) - 1
	if ops[last].out != 1 {
		return nil, fmt.Errorf("nn: %d-column head, want 1 (an arena scores one logit)", ops[last].out)
	}
	prog := &Program{prec: p, ops: ops, inDim: ops[0].in, maxWidth: ops[0].in}
	for i := range ops {
		o := &ops[i]
		prog.maxWidth = max(prog.maxWidth, o.out)
		switch {
		case p == F64:
			o.kernel = kernF64
		case p == F32 && i == last:
			o.kernel = kernLogitF32
		case p == F32:
			o.kernel = kernF32
		case i == last:
			o.kernel = kernLogitI8
		case quantI8 && i > 0 && ops[i-1].relu:
			// Fed by a ReLU, so its input is non-negative and
			// quantisable to u7. Layer 0 sees signed standardised features
			// and the head runs the float64 logit dot, so neither qualifies.
			o.kernel = kernI8Quant
			o.packed = tensor.PackI8KQuad(o.w8, o.in, o.out)
		default:
			o.kernel = kernI8
		}
	}
	return prog, nil
}

// lowerDense carries one Dense layer's weights over at precision p.
func lowerDense(d *Dense, p Precision) op {
	o := op{in: d.In, out: d.Out}
	if p == F64 {
		o.w64, o.b64 = d.W, d.B.Data
		return o
	}
	o.b32, o.b64 = make([]float32, d.Out), make([]float64, d.Out)
	for j, v := range d.B.Data {
		o.b32[j] = float32(v)
		o.b64[j] = float64(float32(v))
	}
	w := tensor.FromMatrixF32(d.W)
	if p == F32 {
		o.w32 = w
		return o
	}
	maxAbs := float32(0)
	for _, v := range w.Data {
		if v < 0 {
			v = -v
		}
		if v > maxAbs {
			maxAbs = v
		}
	}
	o.scale = maxAbs / 127
	if o.scale == 0 {
		o.scale = 1 // all-zero layer: any scale dequantises zeros to zeros
	}
	o.w8 = make([]int8, len(w.Data))
	for j, v := range w.Data {
		r := math.RoundToEven(float64(v) / float64(o.scale))
		if r > 127 {
			r = 127
		} else if r < -127 {
			r = -127
		}
		o.w8[j] = int8(r)
	}
	return o
}

// SizeBytes returns the serialised weight footprint at the program's
// precision: 8 or 4 bytes per weight and bias at f64 and f32; at int8 one
// byte per weight, float32 biases and one float32 scale per layer.
func (p *Program) SizeBytes() int {
	total := 0
	for _, o := range p.ops {
		switch p.prec {
		case F64:
			total += 8 * (o.in*o.out + o.out)
		case F32:
			total += 4 * (o.in*o.out + o.out)
		default:
			total += o.in*o.out + 4*o.out + 4
		}
	}
	return total
}

// Arena is a preallocated forward workspace over one shared Program. After
// construction no pass allocates (TestArenaZeroAlloc). An Arena is NOT safe
// for concurrent use: one goroutine holds it at a time (the serving engine
// lends each of its arenas to one caller at a time). The program is only
// read, so any number of arenas may share one; at f64 it reads the
// network's own weights, so do not train a network while arenas over it are
// in flight.
type Arena struct {
	prog *Program
	// f64: ping-pong activation vectors sized to the widest layer.
	vecA, vecB []float64
	// f32 and int8: the narrowed input row, the current layer's dense
	// output, and the compacted nonzero activations the next layer reads.
	row, buf []float32
	idx      []int32
	val      []float32
	// int8 quantised path: u7 activations padded to whole k-quads, and the
	// int32 accumulators.
	qact []uint8
	iacc []int32
}

// NewArena builds an inference arena over the program.
func (p *Program) NewArena() *Arena {
	a := &Arena{prog: p}
	w := p.maxWidth
	if p.prec == F64 {
		a.vecA, a.vecB = make([]float64, w), make([]float64, w)
		return a
	}
	a.row, a.buf = make([]float32, p.inDim), make([]float32, w)
	a.idx, a.val = make([]int32, w), make([]float32, w)
	if p.prec == I8 {
		a.qact, a.iacc = make([]uint8, (w+3)&^3), make([]int32, w)
	}
	return a
}

// forwardRow runs the program on one float64 feature row and returns the
// head's output before the final sigmoid (the logit, unless a ReLU follows
// the head). Activations travel between ops in the form the
// next op's kernel reads: dense float64 in cur at f64; compacted float32 in
// idx/val at f32 and int8; dense u7 bytes in qact (scale qscale) into a
// kernI8Quant op, with the float32 originals left in buf.
//
// At f32 and int8 the hidden layers accumulate in float32, a trailing ReLU
// folds into the compaction for the next layer so dense activation vectors
// are never materialised, and the 1-wide head accumulates in float64 — the
// one spot where accumulator width matters for stability. The compaction
// order depends only on the row's own zeros.
func (a *Arena) forwardRow(row []float64) float64 {
	p := a.prog
	if len(row) != p.inDim {
		panic(fmt.Sprintf("nn: Arena got input width %d, want %d", len(row), p.inDim))
	}
	cur, buf, next := row, a.vecA, a.vecB
	nz := 0
	var qscale float32
	if p.prec != F64 {
		for i, v := range row {
			a.row[i] = float32(v)
		}
		nz = tensor.CompactNonzeroF32(a.idx, a.val, a.row)
	}
	for i := range p.ops {
		o := &p.ops[i]
		if o.kernel == kernF64 {
			out := buf[:o.out]
			tensor.RowMatMulInto(out, cur, o.w64, o.b64)
			if o.relu {
				// ReLU.Forward's arithmetic: NaN and −0 go to +0.
				for j, x := range out {
					if !(x > 0) {
						out[j] = 0
					}
				}
			}
			cur, buf, next = out, next, buf
			continue
		}
		out := a.buf[:o.out]
		switch o.kernel {
		case kernLogitF32:
			return o.head(tensor.SparseRowDotColumnF64(o.w32, o.b64[0], 0, a.idx[:nz], a.val[:nz]))
		case kernLogitI8:
			acc := 0.0
			for k, id := range a.idx[:nz] {
				acc += float64(a.val[k]) * float64(o.w8[id])
			}
			return o.head(acc*float64(o.scale) + o.b64[0])
		case kernF32:
			tensor.SparseRowMatMulF32Into(out, o.b32, o.w32, a.idx[:nz], a.val[:nz])
		case kernI8:
			tensor.SparseRowMatMulI8Into(out, o.b32, o.w8, o.out, o.scale, a.idx[:nz], a.val[:nz])
		case kernI8Quant:
			tensor.QuantMaddU7I8Into(a.iacc[:o.out], o.out, o.packed, a.qact[:(o.in+3)&^3])
			combined := o.scale * qscale
			for j := range out {
				out[j] = float32(a.iacc[j])*combined + o.b32[j]
			}
		}
		switch {
		case p.ops[i+1].kernel == kernI8Quant:
			// The next layer reads u7 bytes: ReLU densely in place (Lower
			// picks kernI8Quant only after a pure ReLU), quantise, and zero
			// the k-quad padding.
			for j, v := range out {
				if v < 0 {
					out[j] = 0
				}
			}
			qscale = tensor.QuantizeU7F32Into(a.qact[:o.out], out)
			for j := o.out; j < (o.out+3)&^3; j++ {
				a.qact[j] = 0
			}
		case o.relu:
			// The Dense→ReLU chain: ReLU fused with the compaction, one
			// pass over the vector.
			nz = tensor.ReLUCompactF32(a.idx, a.val, out)
		default:
			nz = tensor.CompactNonzeroF32(a.idx, a.val, out)
		}
	}
	// Only f64 programs get here (a reduced head returns above); Lower
	// guarantees the head is one column wide.
	return cur[0]
}

// head applies a reduced head's ReLU, if it has one, to its float64 logit.
func (o *op) head(z float64) float64 {
	if o.relu && z < 0 {
		return 0
	}
	return z
}

// PredictProb1 scores a single feature row, returning P(class=1).
// len(row) must equal the program's input width.
func (a *Arena) PredictProb1(row []float64) float64 {
	return SigmoidScalar(a.forwardRow(row))
}

// PredictProbsInto runs inference on x and writes P(class=1) per row into
// dst, which must have length x.Rows. The batch path IS the row path run per
// row, so it agrees with PredictProb1 bit for bit. Returns dst.
func (a *Arena) PredictProbsInto(dst []float64, x *tensor.Matrix) []float64 {
	if len(dst) != x.Rows {
		panic(fmt.Sprintf("nn: Arena.PredictProbsInto dst length %d != rows %d", len(dst), x.Rows))
	}
	for i := range dst {
		dst[i] = SigmoidScalar(a.forwardRow(x.Row(i)))
	}
	return dst
}

// NewArena lowers net at f64 and returns an arena over it, panicking when
// Lower refuses the stack. Only the benchmark probes and tests call it;
// serving code lowers with Lower and handles the error.
func NewArena(net *Network) *Arena {
	p, err := Lower(net, F64)
	if err != nil {
		panic(err)
	}
	return p.NewArena()
}

// NewNetworkF32 is Lower(net, F32), under the name the benchmark probes use.
func NewNetworkF32(net *Network) (*Program, error) { return Lower(net, F32) }

// NewNetworkI8 is Lower(net, I8), under the name the benchmark probes use.
func NewNetworkI8(net *Network) (*Program, error) { return Lower(net, I8) }

// NewArenaF32 is p.NewArena, under the name the benchmark probes use.
func NewArenaF32(p *Program) *Arena { return p.NewArena() }

// NewArenaI8 is p.NewArena, under the name the benchmark probes use.
func NewArenaI8(p *Program) *Arena { return p.NewArena() }
