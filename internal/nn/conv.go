package nn

import (
	"fmt"
	"math/rand"

	"repro/internal/tensor"
)

// Conv1D is a 1-D convolution over the subcarrier axis: the CSI amplitude
// vector is a spectrum, and local spectral patterns (fades spanning a few
// adjacent subcarriers) are exactly what a small kernel captures. Used by
// the CNN model-family extension as an alternative to the paper's MLP.
//
// Layout: a batch row holds InC channels of length L, channel-major
// (index = channel*L + position). Valid padding, stride 1:
// Lout = L − K + 1, output rows hold OutC channels of length Lout.
type Conv1D struct {
	InC, OutC, K, L int
	W               *tensor.Matrix // OutC × (InC·K)
	B               *tensor.Matrix // 1 × OutC
	GradW           *tensor.Matrix
	GradB           *tensor.Matrix

	input  *tensor.Matrix
	fwdOut *tensor.Matrix
	bwdDx  *tensor.Matrix
}

// NewConv1D creates a Conv1D layer with Kaiming-uniform kernels.
func NewConv1D(inC, outC, k, l int, rng *rand.Rand) *Conv1D {
	if k < 1 || k > l {
		panic(fmt.Sprintf("nn: Conv1D kernel %d out of [1,%d]", k, l))
	}
	c := newConv1D(inC, outC, k, l)
	c.W.KaimingInit(rng, inC*k)
	return c
}

// newConv1D allocates a Conv1D layer with zero kernels and bias, for Load to
// fill; k must lie in [1, l].
func newConv1D(inC, outC, k, l int) *Conv1D {
	return &Conv1D{
		InC: inC, OutC: outC, K: k, L: l,
		W:     tensor.NewMatrix(outC, inC*k),
		B:     tensor.NewMatrix(1, outC),
		GradW: tensor.NewMatrix(outC, inC*k),
		GradB: tensor.NewMatrix(1, outC),
	}
}

// LOut returns the output length per channel.
func (c *Conv1D) LOut() int { return c.L - c.K + 1 }

// Forward implements Layer.
func (c *Conv1D) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	if x.Cols != c.InC*c.L {
		panic(fmt.Sprintf("nn: Conv1D(%d×%d) got input width %d, want %d", c.InC, c.L, x.Cols, c.InC*c.L))
	}
	lout := c.LOut()
	var out *tensor.Matrix
	if train {
		c.input = x
		c.fwdOut = tensor.EnsureShape(c.fwdOut, x.Rows, c.OutC*lout)
		out = c.fwdOut
	} else {
		// No writes to c here: inference must stay concurrent-safe.
		out = tensor.NewMatrix(x.Rows, c.OutC*lout)
	}
	for b := 0; b < x.Rows; b++ {
		in := x.Row(b)
		dst := out.Row(b)
		for oc := 0; oc < c.OutC; oc++ {
			w := c.W.Row(oc)
			bias := c.B.Data[oc]
			base := oc * lout
			for p := 0; p < lout; p++ {
				s := bias
				for ic := 0; ic < c.InC; ic++ {
					inOff := ic*c.L + p
					wOff := ic * c.K
					for j := 0; j < c.K; j++ {
						s += w[wOff+j] * in[inOff+j]
					}
				}
				dst[base+p] = s
			}
		}
	}
	return out
}

// Backward implements Layer.
func (c *Conv1D) Backward(grad *tensor.Matrix) *tensor.Matrix {
	if c.input == nil {
		panic("nn: Conv1D.Backward without a training Forward")
	}
	lout := c.LOut()
	c.GradW.Zero()
	c.GradB.Zero()
	c.bwdDx = tensor.EnsureShape(c.bwdDx, c.input.Rows, c.input.Cols)
	dx := c.bwdDx
	dx.Zero() // accumulated into below; scratch may hold the previous step

	for b := 0; b < c.input.Rows; b++ {
		in := c.input.Row(b)
		g := grad.Row(b)
		dIn := dx.Row(b)
		for oc := 0; oc < c.OutC; oc++ {
			w := c.W.Row(oc)
			gw := c.GradW.Row(oc)
			base := oc * lout
			var gb float64
			for p := 0; p < lout; p++ {
				gv := g[base+p]
				if gv == 0 {
					continue
				}
				gb += gv
				for ic := 0; ic < c.InC; ic++ {
					inOff := ic*c.L + p
					wOff := ic * c.K
					for j := 0; j < c.K; j++ {
						gw[wOff+j] += gv * in[inOff+j]
						dIn[inOff+j] += gv * w[wOff+j]
					}
				}
			}
			c.GradB.Data[oc] += gb
		}
	}
	return dx
}

// Params implements Layer.
func (c *Conv1D) Params() []*tensor.Matrix { return []*tensor.Matrix{c.W, c.B} }

// Grads implements Layer.
func (c *Conv1D) Grads() []*tensor.Matrix { return []*tensor.Matrix{c.GradW, c.GradB} }

// Name implements Layer.
func (c *Conv1D) Name() string { return "conv1d" }

func (c *Conv1D) dropScratch() { c.input, c.fwdOut, c.bwdDx = nil, nil, nil }

// MaxPool1D downsamples each channel by taking the maximum over
// non-overlapping windows of size W (stride = W, trailing remainder
// dropped). It assumes the Conv1D channel-major layout.
type MaxPool1D struct {
	C, L, W int

	argmax []int // per output element: winning input index
	inCols int
	fwdOut *tensor.Matrix
	bwdDx  *tensor.Matrix
}

// NewMaxPool1D creates a pool layer for C channels of length L.
func NewMaxPool1D(c, l, w int) *MaxPool1D {
	if w < 1 || w > l {
		panic(fmt.Sprintf("nn: MaxPool1D window %d out of [1,%d]", w, l))
	}
	return &MaxPool1D{C: c, L: l, W: w}
}

// LOut returns the pooled per-channel length.
func (m *MaxPool1D) LOut() int { return m.L / m.W }

// OutDim returns the flattened output width.
func (m *MaxPool1D) OutDim() int { return m.C * m.LOut() }

// Forward implements Layer.
func (m *MaxPool1D) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	if x.Cols != m.C*m.L {
		panic(fmt.Sprintf("nn: MaxPool1D got width %d, want %d", x.Cols, m.C*m.L))
	}
	lout := m.LOut()
	var out *tensor.Matrix
	if train {
		m.fwdOut = tensor.EnsureShape(m.fwdOut, x.Rows, m.C*lout)
		out = m.fwdOut
		if need := x.Rows * m.C * lout; cap(m.argmax) >= need {
			m.argmax = m.argmax[:need]
		} else {
			m.argmax = make([]int, need)
		}
		m.inCols = x.Cols
	} else {
		// No writes to m here: inference must stay concurrent-safe.
		out = tensor.NewMatrix(x.Rows, m.C*lout)
	}
	for b := 0; b < x.Rows; b++ {
		in := x.Row(b)
		dst := out.Row(b)
		for ch := 0; ch < m.C; ch++ {
			for p := 0; p < lout; p++ {
				start := ch*m.L + p*m.W
				best := start
				for j := 1; j < m.W; j++ {
					if in[start+j] > in[best] {
						best = start + j
					}
				}
				oi := ch*lout + p
				dst[oi] = in[best]
				if train {
					m.argmax[b*m.C*lout+oi] = best
				}
			}
		}
	}
	return out
}

// Backward implements Layer: routes gradient to the argmax positions.
func (m *MaxPool1D) Backward(grad *tensor.Matrix) *tensor.Matrix {
	if m.argmax == nil {
		panic("nn: MaxPool1D.Backward without a training Forward")
	}
	m.bwdDx = tensor.EnsureShape(m.bwdDx, grad.Rows, m.inCols)
	dx := m.bwdDx
	dx.Zero() // gradient is scattered into argmax positions below
	per := grad.Cols
	for b := 0; b < grad.Rows; b++ {
		g := grad.Row(b)
		dIn := dx.Row(b)
		for i, gv := range g {
			dIn[m.argmax[b*per+i]] += gv
		}
	}
	return dx
}

// Params implements Layer.
func (m *MaxPool1D) Params() []*tensor.Matrix { return nil }

// Grads implements Layer.
func (m *MaxPool1D) Grads() []*tensor.Matrix { return nil }

// Name implements Layer.
func (m *MaxPool1D) Name() string { return "maxpool1d" }

func (m *MaxPool1D) dropScratch() { m.argmax, m.fwdOut, m.bwdDx = nil, nil, nil }

// NewCNN builds the CSI CNN used by the model-family extension:
//
//	conv(k=5, 8ch) → ReLU → pool(2) → conv(k=3, 16ch) → ReLU → pool(2)
//	→ dense(→64) → ReLU → dense(→out)
//
// for a length-l single-channel input (l=64 subcarrier amplitudes).
func NewCNN(l, out int, rng *rand.Rand) *Network {
	c1 := NewConv1D(1, 8, 5, l, rng)
	p1 := NewMaxPool1D(8, c1.LOut(), 2)
	c2 := NewConv1D(8, 16, 3, p1.LOut(), rng)
	p2 := NewMaxPool1D(16, c2.LOut(), 2)
	return NewNetwork(
		c1, NewReLU(), p1,
		c2, NewReLU(), p2,
		NewDense(p2.OutDim(), 64, rng), NewReLU(),
		NewDense(64, out, rng),
	)
}
