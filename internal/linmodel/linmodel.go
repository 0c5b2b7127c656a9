// Package linmodel implements the linear baselines the paper compares
// against: a logistic-regression classifier (the scikit-learn
// LogisticRegression stand-in for Table IV) and an ordinary-least-squares /
// ridge linear regressor (Table V), plus the feature standardiser both
// share with the MLP pipeline.
package linmodel

import (
	"fmt"
	"math"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// Scaler standardises features to zero mean and unit variance, the usual
// preprocessing for both linear models and MLPs.
type Scaler struct {
	Mean []float64
	Std  []float64
}

// FitScaler computes column statistics from x.
func FitScaler(x *tensor.Matrix) *Scaler {
	s := &Scaler{Mean: x.ColMeans(), Std: make([]float64, x.Cols)}
	for j := 0; j < x.Cols; j++ {
		var ss float64
		for i := 0; i < x.Rows; i++ {
			d := x.At(i, j) - s.Mean[j]
			ss += d * d
		}
		std := 0.0
		if x.Rows > 0 {
			std = math.Sqrt(ss / float64(x.Rows))
		}
		if std < 1e-12 {
			std = 1 // constant column: leave centred values at zero
		}
		s.Std[j] = std
	}
	return s
}

// Transform returns a standardised copy of x.
func (s *Scaler) Transform(x *tensor.Matrix) *tensor.Matrix {
	if x.Cols != len(s.Mean) {
		panic(fmt.Sprintf("linmodel: Transform width %d != %d", x.Cols, len(s.Mean)))
	}
	out := x.Clone()
	for i := 0; i < out.Rows; i++ {
		row := out.Row(i)
		for j := range row {
			row[j] = (row[j] - s.Mean[j]) / s.Std[j]
		}
	}
	return out
}

// TransformRow standardises a single sample in place.
func (s *Scaler) TransformRow(row []float64) {
	if len(row) != len(s.Mean) {
		panic(fmt.Sprintf("linmodel: TransformRow width %d != %d", len(row), len(s.Mean)))
	}
	for j := range row {
		row[j] = (row[j] - s.Mean[j]) / s.Std[j]
	}
}

// Logistic is a binary logistic-regression classifier: W and B minimise
// the mean log-loss plus (l2/2)·‖W‖², solved by Fit to its optimum.
type Logistic struct {
	W []float64
	B float64
}

// l2 is the ridge on the weights of Logistic's objective; the bias is not
// penalised. It is scikit-learn's C = 1/(n·l2) on the sum-form objective.
const l2 = 1e-4

// The Newton solve stops once ‖∇J‖∞ ≤ gradTol, when no step along the
// Newton direction lowers J, or after maxNewtonSteps steps.
const (
	gradTol        = 1e-8
	maxNewtonSteps = 100
	maxHalvings    = 50
	armijo         = 1e-4 // sufficient-decrease fraction of the line search
)

// Fit trains on rows of x with binary labels y by Newton's method
// (iteratively reweighted least squares): each step solves
// (X̃ᵀSX̃/n + l2·I′)·Δ = ∇J, with X̃ = [X | 1], S the diagonal of p(1−p)
// and I′ the identity without the bias entry, and halves the step until J
// falls by the Armijo margin.
func (l *Logistic) Fit(x *tensor.Matrix, y []int) {
	if x.Rows != len(y) {
		panic(fmt.Sprintf("linmodel: Logistic.Fit rows %d != labels %d", x.Rows, len(y)))
	}
	n, d := x.Rows, x.Cols
	l.W = make([]float64, d)
	l.B = 0
	if n == 0 {
		return
	}
	// θ = (W, B) against the design with a trailing column of ones.
	xb := tensor.NewMatrix(n, d+1)
	for i := 0; i < n; i++ {
		row := xb.Row(i)
		copy(row, x.Row(i))
		row[d] = 1
	}
	theta, trial := make([]float64, d+1), make([]float64, d+1)
	z, zTrial := make([]float64, n), make([]float64, n)
	obj := logLoss(xb, y, theta, z)
	resid := tensor.NewMatrix(n, 1)
	ws := tensor.NewMatrix(n, d+1) // rows of X̃ weighted by √(p(1−p))
	grad := tensor.NewMatrix(d+1, 1)
	hess := tensor.NewMatrix(d+1, d+1)
	inv := 1 / float64(n)
	for step := 0; step < maxNewtonSteps; step++ {
		for i, zi := range z {
			p := nn.SigmoidScalar(zi)
			resid.Data[i] = p - float64(y[i])
			row := ws.Row(i)
			copy(row, xb.Row(i))
			tensor.ScaleVec(row, math.Sqrt(p*(1-p)))
		}
		tensor.MatMulATB(grad, xb, resid)
		gmax := 0.0
		for j := range grad.Data {
			grad.Data[j] *= inv
			if j < d {
				grad.Data[j] += l2 * theta[j]
			}
			gmax = math.Max(gmax, math.Abs(grad.Data[j]))
		}
		if gmax <= gradTol {
			break
		}
		tensor.MatMulATB(hess, ws, ws)
		tensor.ScaleVec(hess.Data, inv)
		for j := 0; j < d; j++ {
			hess.Data[j*(d+1)+j] += l2
		}
		delta, err := tensor.SolveSPD(hess, grad, 0)
		if err != nil {
			break
		}
		slope := tensor.Dot(grad.Data, delta.Data)
		accepted := false
		for t, k := 1.0, 0; k < maxHalvings; t, k = t/2, k+1 {
			for j := range trial {
				trial[j] = theta[j] - t*delta.Data[j]
			}
			if o := logLoss(xb, y, trial, zTrial); o < obj-armijo*t*slope {
				theta, trial, z, zTrial, obj, accepted = trial, theta, zTrial, z, o, true
				break
			}
		}
		if !accepted {
			break
		}
	}
	copy(l.W, theta[:d])
	l.B = theta[d]
}

// logLoss returns the objective at θ over the bias-augmented design x,
// leaving each row's logit in z.
func logLoss(x *tensor.Matrix, y []int, theta, z []float64) float64 {
	var sum float64
	for i := range z {
		z[i] = tensor.Dot(x.Row(i), theta)
		// log(1+eᶻ) − y·z, with log(1+eᶻ) = max(z, 0) + log1p(e^−|z|).
		sum += math.Max(z[i], 0) + math.Log1p(math.Exp(-math.Abs(z[i]))) - float64(y[i])*z[i]
	}
	w := theta[:len(theta)-1]
	return sum/float64(len(z)) + l2/2*tensor.Dot(w, w)
}

// PredictProb returns P(class=1) for one sample.
func (l *Logistic) PredictProb(row []float64) float64 {
	return nn.SigmoidScalar(tensor.Dot(l.W, row) + l.B)
}

// Predict thresholds PredictProb at 0.5 for each row of x.
func (l *Logistic) Predict(x *tensor.Matrix) []int {
	out := make([]int, x.Rows)
	for i := 0; i < x.Rows; i++ {
		if l.PredictProb(x.Row(i)) >= 0.5 {
			out[i] = 1
		}
	}
	return out
}

// Linear is a least-squares linear regressor (optionally ridge-regularised)
// solved in closed form via the normal equations, supporting multiple
// targets at once.
type Linear struct {
	W *tensor.Matrix // features × targets
	B []float64      // per-target intercept
}

// FitLinear solves min ||X·W + b − Y||² (+ ridge·||W||²) with intercepts
// handled by centring, the textbook OLS route the paper uses for Table V.
func FitLinear(x, y *tensor.Matrix, ridge float64) (*Linear, error) {
	if x.Rows != y.Rows {
		return nil, fmt.Errorf("linmodel: FitLinear rows %d vs %d", x.Rows, y.Rows)
	}
	if x.Rows == 0 {
		return nil, fmt.Errorf("linmodel: FitLinear on empty data")
	}
	xm := x.ColMeans()
	ym := y.ColMeans()
	xc := x.Clone()
	for i := 0; i < xc.Rows; i++ {
		row := xc.Row(i)
		for j := range row {
			row[j] -= xm[j]
		}
	}
	yc := y.Clone()
	for i := 0; i < yc.Rows; i++ {
		row := yc.Row(i)
		for j := range row {
			row[j] -= ym[j]
		}
	}
	xtx := tensor.MatMulATB(nil, xc, xc)
	xty := tensor.MatMulATB(nil, xc, yc)
	w, err := tensor.SolveSPD(xtx, xty, ridge)
	if err != nil {
		return nil, fmt.Errorf("linmodel: normal equations: %w", err)
	}
	b := make([]float64, y.Cols)
	for t := 0; t < y.Cols; t++ {
		b[t] = ym[t]
		for j := 0; j < x.Cols; j++ {
			b[t] -= w.At(j, t) * xm[j]
		}
	}
	return &Linear{W: w, B: b}, nil
}

// Predict returns the fitted values for each row of x, one slice per target.
func (l *Linear) Predict(x *tensor.Matrix) [][]float64 {
	if x.Cols != l.W.Rows {
		panic(fmt.Sprintf("linmodel: Predict width %d != %d", x.Cols, l.W.Rows))
	}
	pred := tensor.MatMul(nil, x, l.W)
	pred.AddRowVector(l.B)
	cols := make([][]float64, pred.Cols)
	for c := range cols {
		col := make([]float64, pred.Rows)
		for r := 0; r < pred.Rows; r++ {
			col[r] = pred.At(r, c)
		}
		cols[c] = col
	}
	return cols
}
