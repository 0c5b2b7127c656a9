// Package linmodel implements the linear baselines the paper compares
// against: a logistic-regression classifier (the scikit-learn
// LogisticRegression stand-in for Table IV) and an ordinary-least-squares /
// ridge linear regressor (Table V), plus the feature standardiser both
// share with the MLP pipeline.
package linmodel

import (
	"fmt"
	"math"
	"math/rand"

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

// Logistic is a binary logistic-regression classifier trained by mini-batch
// gradient descent with L2 regularisation.
type Logistic struct {
	W []float64
	B float64
}

// LogisticConfig controls Logistic.Fit.
type LogisticConfig struct {
	Epochs    int
	BatchSize int
	LR        float64
	L2        float64
	Seed      int64
}

// Validate reports whether the configuration is trainable (zero sizes are
// defaulted by Fit, so only negative values fail).
func (c LogisticConfig) Validate() error {
	if c.Epochs < 0 || c.BatchSize < 0 {
		return fmt.Errorf("linmodel: negative training sizes (epochs %d, batch %d)", c.Epochs, c.BatchSize)
	}
	if c.LR < 0 || c.L2 < 0 {
		return fmt.Errorf("linmodel: negative rates (lr %g, l2 %g)", c.LR, c.L2)
	}
	return nil
}

// DefaultLogisticConfig mirrors scikit-learn-ish defaults adapted to GD.
func DefaultLogisticConfig() LogisticConfig {
	return LogisticConfig{Epochs: 30, BatchSize: 256, LR: 0.1, L2: 1e-4, Seed: 1}
}

// Fit trains on rows of x with binary labels y.
func (l *Logistic) Fit(x *tensor.Matrix, y []int, cfg LogisticConfig) {
	if x.Rows != len(y) {
		panic(fmt.Sprintf("linmodel: Logistic.Fit rows %d != labels %d", x.Rows, len(y)))
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 1
	}
	if cfg.BatchSize <= 0 || cfg.BatchSize > x.Rows {
		cfg.BatchSize = x.Rows
	}
	l.W = make([]float64, x.Cols)
	l.B = 0
	if x.Rows == 0 {
		return
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	idx := make([]int, x.Rows)
	for i := range idx {
		idx[i] = i
	}
	gw := make([]float64, x.Cols)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for start := 0; start < len(idx); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(idx) {
				end = len(idx)
			}
			for j := range gw {
				gw[j] = 0
			}
			var gb float64
			for _, si := range idx[start:end] {
				row := x.Row(si)
				p := nn.SigmoidScalar(tensor.Dot(l.W, row) + l.B)
				e := p - float64(y[si])
				tensor.Axpy(gw, e, row)
				gb += e
			}
			inv := 1 / float64(end-start)
			for j := range l.W {
				l.W[j] -= cfg.LR * (gw[j]*inv + cfg.L2*l.W[j])
			}
			l.B -= cfg.LR * gb * inv
		}
	}
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
