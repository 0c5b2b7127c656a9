package linmodel

import (
	"fmt"
	"math/rand"

	"repro/internal/tensor"
)

// PCA is a principal-component projection fitted by orthogonal power
// iteration on the covariance matrix — the dimensionality-reduction
// front-end much of the CSI-sensing literature applies to the 64-subcarrier
// vector before classification. The preprocessing ablation uses it to test
// whether the paper's raw-amplitude pipeline leaves accuracy on the table.
type PCA struct {
	Mean       []float64
	Components *tensor.Matrix // k × d, rows are orthonormal directions
	Explained  []float64      // per-component variance
}

// FitPCA extracts the top-k principal components of x (n×d). k must be in
// [1, d]. Deterministic for a given seed.
func FitPCA(x *tensor.Matrix, k int, seed int64) (*PCA, error) {
	if x.Rows < 2 {
		return nil, fmt.Errorf("linmodel: PCA needs ≥2 samples, got %d", x.Rows)
	}
	if k < 1 || k > x.Cols {
		return nil, fmt.Errorf("linmodel: PCA k=%d out of [1,%d]", k, x.Cols)
	}
	d := x.Cols
	mean := x.ColMeans()
	// Covariance (d×d), fine for d ≤ a few hundred (we have 64).
	centered := x.Clone()
	for i := 0; i < centered.Rows; i++ {
		row := centered.Row(i)
		for j := range row {
			row[j] -= mean[j]
		}
	}
	cov := tensor.MatMulATB(nil, centered, centered)
	cov.Scale(1 / float64(x.Rows))

	p := &PCA{Mean: mean, Components: tensor.NewMatrix(k, d), Explained: make([]float64, k)}
	rng := rand.New(rand.NewSource(seed))
	work := cov.Clone()
	v := make([]float64, d)
	for c := 0; c < k; c++ {
		// Power iteration on the deflated covariance.
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		normalize(v)
		var lambda float64
		for it := 0; it < 500; it++ {
			w := tensor.MatVec(work, v)
			l := tensor.Norm2(w)
			if l == 0 {
				break // exhausted the spectrum
			}
			tensor.ScaleVec(w, 1/l)
			delta := 0.0
			for j := range v {
				dv := w[j] - v[j]
				if dv < 0 {
					dv = -dv
				}
				if dv > delta {
					delta = dv
				}
			}
			copy(v, w)
			lambda = l
			if delta < 1e-12 {
				break
			}
		}
		copy(p.Components.Row(c), v)
		p.Explained[c] = lambda
		// Deflate: work -= λ·vvᵀ.
		for i := 0; i < d; i++ {
			vi := v[i]
			if vi == 0 {
				continue
			}
			row := work.Row(i)
			for j := 0; j < d; j++ {
				row[j] -= lambda * vi * v[j]
			}
		}
	}
	return p, nil
}

func normalize(v []float64) {
	n := tensor.Norm2(v)
	if n == 0 {
		v[0] = 1
		return
	}
	tensor.ScaleVec(v, 1/n)
}

// Transform projects x (n×d) onto the fitted components, returning n×k.
func (p *PCA) Transform(x *tensor.Matrix) *tensor.Matrix {
	if x.Cols != len(p.Mean) {
		panic(fmt.Sprintf("linmodel: PCA.Transform width %d != %d", x.Cols, len(p.Mean)))
	}
	k := p.Components.Rows
	out := tensor.NewMatrix(x.Rows, k)
	row := make([]float64, x.Cols)
	for i := 0; i < x.Rows; i++ {
		copy(row, x.Row(i))
		for j := range row {
			row[j] -= p.Mean[j]
		}
		for c := 0; c < k; c++ {
			out.Set(i, c, tensor.Dot(p.Components.Row(c), row))
		}
	}
	return out
}
