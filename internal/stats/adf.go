package stats

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/tensor"
)

// ADFResult is the outcome of an Augmented Dickey–Fuller unit-root test
// with a constant term (the specification used by the paper's profiling
// step, §V-A, citing Cheung & Lai for lag order and critical values).
type ADFResult struct {
	Statistic float64 // the Dickey–Fuller t statistic on the lagged level
	Lags      int     // number of augmenting difference lags used
	NObs      int     // observations entering the regression
	// Critical values for the constant-only specification (MacKinnon).
	Crit1, Crit5, Crit10 float64
}

// Stationary reports whether the unit-root null is rejected at the 5% level,
// i.e. whether the series is (trend-free) stationary.
func (r ADFResult) Stationary() bool { return r.Statistic < r.Crit5 }

func (r ADFResult) String() string {
	verdict := "non-stationary (unit root not rejected)"
	if r.Stationary() {
		verdict = "stationary (unit root rejected at 5%)"
	}
	return fmt.Sprintf("ADF t=%.3f lags=%d n=%d crit(1%%/5%%/10%%)=%.2f/%.2f/%.2f → %s",
		r.Statistic, r.Lags, r.NObs, r.Crit1, r.Crit5, r.Crit10, verdict)
}

// ErrSeriesTooShort is returned when the series cannot support the requested
// lag order.
var ErrSeriesTooShort = errors.New("stats: series too short for ADF test")

// ADF runs the Augmented Dickey–Fuller test with a constant on series x
// using `lags` augmenting lags. Pass lags < 0 to select the Schwert rule
// lag order 12·(n/100)^(1/4) truncated, the common automatic choice.
//
// The regression is Δy_t = α + γ·y_{t-1} + Σ β_i·Δy_{t-i} + ε_t and the
// statistic is t(γ̂). Constant series are reported as trivially stationary.
func ADF(x []float64, lags int) (ADFResult, error) {
	n := len(x)
	if lags < 0 {
		lags = int(12 * math.Pow(float64(n)/100.0, 0.25))
	}
	nobs := n - 1 - lags
	k := lags + 2 // constant + level + lag diffs
	if nobs <= k {
		return ADFResult{}, ErrSeriesTooShort
	}
	crit1, crit5, crit10 := -3.43, -2.86, -2.57

	if Variance(x) == 0 {
		// A constant series has no unit root; report the strongest
		// possible rejection so callers treat it as stationary.
		return ADFResult{Statistic: math.Inf(-1), Lags: lags, NObs: nobs,
			Crit1: crit1, Crit5: crit5, Crit10: crit10}, nil
	}

	// First differences.
	dy := make([]float64, n-1)
	for i := 1; i < n; i++ {
		dy[i-1] = x[i] - x[i-1]
	}

	// Design matrix rows: [1, y_{t-1}, Δy_{t-1}, ..., Δy_{t-lags}].
	X := tensor.NewMatrix(nobs, k)
	y := tensor.NewMatrix(nobs, 1)
	for t := 0; t < nobs; t++ {
		// Row t corresponds to time index (lags+1+t) in the original series.
		idx := lags + 1 + t
		row := X.Row(t)
		row[0] = 1
		row[1] = x[idx-1]
		for i := 1; i <= lags; i++ {
			row[1+i] = dy[idx-1-i]
		}
		y.Set(t, 0, dy[idx-1])
	}

	beta, resVar, xtxInv, err := olsWithCov(X, y)
	if err != nil {
		return ADFResult{}, err
	}
	se := math.Sqrt(resVar * xtxInv.At(1, 1))
	stat := beta.At(1, 0) / se
	return ADFResult{Statistic: stat, Lags: lags, NObs: nobs,
		Crit1: crit1, Crit5: crit5, Crit10: crit10}, nil
}

// olsWithCov solves the least squares problem y = X·β and additionally
// returns the residual variance s² = RSS/(n-k) and (XᵀX)⁻¹, from which
// coefficient standard errors follow as sqrt(s²·diag((XᵀX)⁻¹)). One
// factorisation of XᵀX solves for both, against [Xᵀy | I].
func olsWithCov(X, y *tensor.Matrix) (beta *tensor.Matrix, resVar float64, xtxInv *tensor.Matrix, err error) {
	k := X.Cols
	xty := tensor.MatMulATB(nil, X, y)
	rhs := tensor.NewMatrix(k, 1+k)
	for i := 0; i < k; i++ {
		rhs.Set(i, 0, xty.At(i, 0))
		rhs.Set(i, 1+i, 1)
	}
	sol, err := tensor.SolveSPD(tensor.MatMulATB(nil, X, X), rhs, 0)
	if err != nil {
		return nil, 0, nil, err
	}
	beta, xtxInv = tensor.NewMatrix(k, 1), tensor.NewMatrix(k, k)
	for i := 0; i < k; i++ {
		row := sol.Row(i)
		beta.Set(i, 0, row[0])
		copy(xtxInv.Row(i), row[1:])
	}
	pred := tensor.MatMul(nil, X, beta)
	var rss float64
	for i := range pred.Data {
		d := y.Data[i] - pred.Data[i]
		rss += d * d
	}
	dof := X.Rows - k
	if dof <= 0 {
		dof = 1
	}
	return beta, rss / float64(dof), xtxInv, nil
}
