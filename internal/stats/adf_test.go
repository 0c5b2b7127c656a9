package stats

import (
	"math"
	"math/rand"
	"testing"
)

// TestADFStationaryWhiteNoise: i.i.d. noise strongly rejects the unit root.
func TestADFStationaryWhiteNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	x := make([]float64, 500)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	res, err := ADF(x, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stationary() {
		t.Fatalf("white noise must be stationary: %v", res)
	}
	if res.Statistic >= res.Crit1 {
		t.Fatalf("white noise should reject even at 1%%: %v", res)
	}
}

// TestADFStationaryAR1: a mean-reverting AR(1) with φ=0.5 is stationary.
func TestADFStationaryAR1(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	x := make([]float64, 800)
	for i := 1; i < len(x); i++ {
		x[i] = 0.5*x[i-1] + rng.NormFloat64()
	}
	res, err := ADF(x, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stationary() {
		t.Fatalf("AR(1) φ=0.5 must be stationary: %v", res)
	}
}

// TestADFRandomWalkNotStationary: a pure random walk must not reject.
func TestADFRandomWalkNotStationary(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	x := make([]float64, 800)
	for i := 1; i < len(x); i++ {
		x[i] = x[i-1] + rng.NormFloat64()
	}
	res, err := ADF(x, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stationary() {
		t.Fatalf("random walk must not be stationary: %v", res)
	}
}

func TestADFConstantSeries(t *testing.T) {
	x := make([]float64, 100)
	for i := range x {
		x[i] = 3.25
	}
	res, err := ADF(x, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stationary() || !math.IsInf(res.Statistic, -1) {
		t.Fatalf("constant series should be trivially stationary: %v", res)
	}
}

func TestADFAutoLagAndShortSeries(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	x := make([]float64, 200)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	res, err := ADF(x, -1) // Schwert automatic lag
	if err != nil {
		t.Fatal(err)
	}
	wantLags := int(12 * math.Pow(2.0, 0.25))
	if res.Lags != wantLags {
		t.Fatalf("auto lags got %d want %d", res.Lags, wantLags)
	}
	if _, err := ADF([]float64{1, 2, 3}, 5); err == nil {
		t.Fatal("expected ErrSeriesTooShort")
	}
}

func TestADFStringVerdicts(t *testing.T) {
	r := ADFResult{Statistic: -10, Crit1: -3.43, Crit5: -2.86, Crit10: -2.57}
	if got := r.String(); got == "" || !r.Stationary() {
		t.Fatalf("bad stationary rendering: %q", got)
	}
	r2 := ADFResult{Statistic: -1, Crit1: -3.43, Crit5: -2.86, Crit10: -2.57}
	if r2.Stationary() {
		t.Fatal("t=-1 must not reject")
	}
}

// TestADFNoLagsMatchesSimpleRegression pins the statistic itself: with no
// augmenting lags the ADF regression is Δy_t = α + γ·y_{t-1}, a simple
// regression whose t(γ̂) has the closed form γ̂/√(s²/Sxx), with γ̂ = Sxy/Sxx
// and s² = (Syy − Sxy²/Sxx)/(n−2).
func TestADFNoLagsMatchesSimpleRegression(t *testing.T) {
	x := []float64{1, 3, 2, 5, 4, 4.5, 3, 6}
	var lag, dy []float64
	for i := 1; i < len(x); i++ {
		lag = append(lag, x[i-1])
		dy = append(dy, x[i]-x[i-1])
	}
	n := float64(len(dy))
	ml, md := Mean(lag), Mean(dy)
	var sxx, sxy, syy float64
	for i := range dy {
		sxx += (lag[i] - ml) * (lag[i] - ml)
		sxy += (lag[i] - ml) * (dy[i] - md)
		syy += (dy[i] - md) * (dy[i] - md)
	}
	s2 := (syy - sxy*sxy/sxx) / (n - 2)
	want := (sxy / sxx) / math.Sqrt(s2/sxx)

	res, err := ADF(x, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Lags != 0 || res.NObs != len(dy) {
		t.Fatalf("lags %d nobs %d, want 0 and %d", res.Lags, res.NObs, len(dy))
	}
	if math.Abs(res.Statistic-want) > 1e-12 {
		t.Fatalf("ADF t = %.17g, closed form %.17g", res.Statistic, want)
	}
}
