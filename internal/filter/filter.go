// Package filter implements the classical CSI denoising front-ends the
// WiFi-sensing literature applies before classification — moving-average
// smoothing, the Hampel outlier filter, and Savitzky–Golay polynomial
// smoothing. The paper's pitch (§I) is that its deep model works *without*
// these "computationally-demanding pre-processing pipelines"; implementing
// them lets the preprocessing ablation (core.RunAblation's "preproc" sweep)
// test that claim on the synthetic substrate.
package filter

import (
	"fmt"

	"repro/internal/stats"
	"repro/internal/tensor"
)

// Filter denoises one time series, returning a slice of equal length.
type Filter interface {
	Apply(x []float64) []float64
	Name() string
}

// MovingAverage is a centred moving-average smoother with window 2R+1
// (shrinking symmetrically at the edges).
type MovingAverage struct {
	R int // half-window
}

// Apply implements Filter.
func (m MovingAverage) Apply(x []float64) []float64 {
	r := m.R
	if r < 1 {
		return append([]float64(nil), x...)
	}
	out := make([]float64, len(x))
	// Prefix sums for O(n).
	prefix := make([]float64, len(x)+1)
	for i, v := range x {
		prefix[i+1] = prefix[i] + v
	}
	for i := range x {
		lo, hi := i-r, i+r
		if lo < 0 {
			lo = 0
		}
		if hi >= len(x) {
			hi = len(x) - 1
		}
		out[i] = (prefix[hi+1] - prefix[lo]) / float64(hi-lo+1)
	}
	return out
}

// Name implements Filter.
func (m MovingAverage) Name() string { return fmt.Sprintf("moving-average(%d)", 2*m.R+1) }

// Hampel replaces samples deviating from the local median by more than
// NSigma scaled MADs with that median — the standard CSI spike remover.
type Hampel struct {
	R      int     // half-window
	NSigma float64 // threshold in (scaled) MAD units, typically 3
}

// Apply implements Filter.
func (h Hampel) Apply(x []float64) []float64 {
	r := h.R
	if r < 1 {
		return append([]float64(nil), x...)
	}
	ns := h.NSigma
	if ns <= 0 {
		ns = 3
	}
	const k = 1.4826 // MAD→σ for Gaussian data
	out := append([]float64(nil), x...)
	win := make([]float64, 0, 2*r+1)
	dev := make([]float64, 0, 2*r+1)
	for i := range x {
		lo, hi := i-r, i+r
		if lo < 0 {
			lo = 0
		}
		if hi >= len(x) {
			hi = len(x) - 1
		}
		win = win[:0]
		for j := lo; j <= hi; j++ {
			win = append(win, x[j])
		}
		med := stats.Quantile(win, 0.5)
		dev = dev[:0]
		for _, v := range win {
			d := v - med
			if d < 0 {
				d = -d
			}
			dev = append(dev, d)
		}
		mad := k * stats.Quantile(dev, 0.5)
		if mad == 0 {
			continue // constant window: leave the sample alone
		}
		if diff := x[i] - med; diff > ns*mad || diff < -ns*mad {
			out[i] = med
		}
	}
	return out
}

// Name implements Filter.
func (h Hampel) Name() string { return fmt.Sprintf("hampel(%d,%.1fσ)", 2*h.R+1, h.NSigma) }

// SavitzkyGolay fits a degree-Degree polynomial over a 2R+1 window by least
// squares and evaluates it at the centre — smoothing that preserves local
// peaks better than a plain average. Coefficients are precomputed once.
type SavitzkyGolay struct {
	R      int
	Degree int

	weights []float64 // convolution weights for the centre sample
}

// NewSavitzkyGolay precomputes the projection weights. Degree must be
// below the window size 2R+1.
func NewSavitzkyGolay(r, degree int) (*SavitzkyGolay, error) {
	if r < 1 {
		return nil, fmt.Errorf("filter: Savitzky–Golay half-window %d < 1", r)
	}
	if degree < 0 || degree >= 2*r+1 {
		return nil, fmt.Errorf("filter: degree %d incompatible with window %d", degree, 2*r+1)
	}
	n := 2*r + 1
	// Vandermonde design A[i][j] = i^j for i = -r..r.
	a := tensor.NewMatrix(n, degree+1)
	for i := 0; i < n; i++ {
		t := float64(i - r)
		v := 1.0
		for j := 0; j <= degree; j++ {
			a.Set(i, j, v)
			v *= t
		}
	}
	// Centre-evaluation weights: e₀ᵀ(AᵀA)⁻¹Aᵀ — solve (AᵀA)c = e₀ and take
	// w = A·c.
	ata := tensor.MatMulATB(nil, a, a)
	e0 := tensor.NewMatrix(degree+1, 1)
	e0.Set(0, 0, 1)
	c, err := tensor.SolveSPD(ata, e0, 0)
	if err != nil {
		return nil, fmt.Errorf("filter: Savitzky–Golay normal equations: %w", err)
	}
	w := tensor.MatVec(a, colSlice(c))
	return &SavitzkyGolay{R: r, Degree: degree, weights: w}, nil
}

func colSlice(m *tensor.Matrix) []float64 {
	out := make([]float64, m.Rows)
	for i := range out {
		out[i] = m.At(i, 0)
	}
	return out
}

// Apply implements Filter. Edges fall back to the nearest full window's
// polynomial evaluated at the centre (simple replication padding).
func (s *SavitzkyGolay) Apply(x []float64) []float64 {
	r := s.R
	out := make([]float64, len(x))
	if len(x) < 2*r+1 {
		copy(out, x)
		return out
	}
	at := func(i int) float64 {
		if i < 0 {
			return x[0]
		}
		if i >= len(x) {
			return x[len(x)-1]
		}
		return x[i]
	}
	for i := range x {
		var v float64
		for j, w := range s.weights {
			v += w * at(i+j-r)
		}
		out[i] = v
	}
	return out
}

// Name implements Filter.
func (s *SavitzkyGolay) Name() string {
	return fmt.Sprintf("savitzky-golay(%d,deg%d)", 2*s.R+1, s.Degree)
}

// Identity passes the series through unchanged (the "no preprocessing"
// arm of the ablation).
type Identity struct{}

// Apply implements Filter.
func (Identity) Apply(x []float64) []float64 { return append([]float64(nil), x...) }

// Name implements Filter.
func (Identity) Name() string { return "raw" }
