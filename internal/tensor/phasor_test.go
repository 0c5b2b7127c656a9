package tensor

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// Exact-parity tests for PhasorSumInto (DESIGN.md §14). The reference below
// restates, in this file's own text, the loop the channel simulator ran
// before the kernel existed — rays outermost, cmplx.Rect per subcarrier —
// and PhasorSumInto must reproduce it under math.Float64bits under whichever
// kernel cpukit selected; the CI kernel-parity job runs the package once per
// OCCU_KERNEL setting.

func phasorSumRef(w []float64, rays []Phasor) (re, im []float64) {
	h := make([]complex128, len(w))
	for _, r := range rays {
		for k := range w {
			h[k] += r.G * cmplx.Rect(r.Att, w[k]*r.Tau+r.Base+r.Extra)
		}
	}
	re, im = make([]float64, len(w)), make([]float64, len(w))
	for k, v := range h {
		re[k], im[k] = real(v), imag(v)
	}
	return re, im
}

func checkPhasorSum(t *testing.T, label string, w []float64, rays []Phasor) {
	t.Helper()
	wantRe, wantIm := phasorSumRef(w, rays)
	re, im := make([]float64, len(w)), make([]float64, len(w))
	for k := range re { // dirty outputs: PhasorSumInto overwrites
		re[k], im[k] = math.NaN(), -1
	}
	PhasorSumInto(re, im, w, rays)
	for k := range w {
		if math.Float64bits(re[k]) != math.Float64bits(wantRe[k]) || math.Float64bits(im[k]) != math.Float64bits(wantIm[k]) {
			t.Fatalf("%s (avx2=%v): subcarrier %d of %d, w=%v (%#016x): got (%v, %v) = (%#016x, %#016x), reference (%v, %v) = (%#016x, %#016x)",
				label, useAVX2, k, len(w), w[k], math.Float64bits(w[k]),
				re[k], im[k], math.Float64bits(re[k]), math.Float64bits(im[k]),
				wantRe[k], wantIm[k], math.Float64bits(wantRe[k]), math.Float64bits(wantIm[k]))
		}
	}
}

var negZero = math.Copysign(0, -1)

// unitRay evaluates to G·Rect(att, w[k]) exactly: w·1 is w, and adding −0
// leaves every value, −0 included, unchanged.
func unitRay(g complex128, att float64) Phasor {
	return Phasor{G: g, Att: att, Tau: 1, Base: negZero, Extra: negZero}
}

// edgePhases are the phases where math.Sincos's branches meet: signed zeros
// (its special case), subnormals, one ulp either side of every kπ/4 up to
// |k| = 40 (the octant boundaries and the odd-octant fix), the top of the
// Cody–Waite range just below 2²⁹, and — kernel fallback lanes — 2²⁹ and
// above, ±Inf and NaN.
func edgePhases() (inRange, fallback []float64) {
	inRange = []float64{0, negZero, 5e-324, -5e-324, 2.2250738585072009e-308, -2.2250738585072014e-308, 1e-300}
	for k := -40; k <= 40; k++ {
		p := float64(k) * math.Pi / 4
		inRange = append(inRange, math.Nextafter(p, math.Inf(-1)), p, math.Nextafter(p, math.Inf(1)))
	}
	for _, p := range []float64{math.Nextafter(1<<29, 0), 1<<29 - 1, 1<<29 - 0.75, 123456789.123} {
		inRange = append(inRange, p, -p)
	}
	fallback = []float64{1 << 29, -(1 << 29), math.Nextafter(1<<29, math.Inf(1)), 1e300, -1e18,
		math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0x7FF8_0000_0000_BEEF), math.Float64frombits(0xFFF0_0000_0000_0001)}
	return inRange, fallback
}

func TestPhasorSumExact(t *testing.T) {
	inRange, fallback := edgePhases()
	gains := []complex128{1, complex(0.3, -0.7), complex(negZero, 1), complex(-2, negZero), complex(negZero, negZero), 0}
	atts := []float64{1, 0.45, 0, negZero, 5e-324, 1e-310}
	// Every edge phase under every gain and amplitude, one ray at a time.
	for _, g := range gains {
		for _, a := range atts {
			checkPhasorSum(t, "edge phases", inRange, []Phasor{unitRay(g, a)})
		}
	}
	// Fallback lanes among kernel lanes: a bad lane costs its own block of
	// four and no other, wherever it sits, and lengths with a k%4 tail.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		w := make([]float64, 1+rng.Intn(40))
		for k := range w {
			w[k] = inRange[rng.Intn(len(inRange))]
			if rng.Intn(6) == 0 {
				w[k] = fallback[rng.Intn(len(fallback))]
			}
		}
		rays := []Phasor{unitRay(gains[rng.Intn(len(gains))], atts[rng.Intn(len(atts))]), randomPhasor(rng), unitRay(complex(rng.NormFloat64(), 0), 1)}
		checkPhasorSum(t, "fallback lanes", w, rays)
	}
	// Non-finite ray fields send the whole table to the Go loop.
	for _, bad := range []float64{math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0x7FF8_0000_0000_BEEF)} {
		for field := 0; field < 6; field++ {
			rays := []Phasor{randomPhasor(rng), randomPhasor(rng)}
			r := &rays[1]
			v := [...]float64{real(r.G), imag(r.G), r.Att, r.Tau, r.Base, r.Extra}
			v[field] = bad
			*r = Phasor{G: complex(v[0], v[1]), Att: v[2], Tau: v[3], Base: v[4], Extra: v[5]}
			checkPhasorSum(t, "non-finite ray", paperW(), rays)
		}
	}
	// Random tables shaped like the channel simulator's: the paper's 64
	// subcarriers, 9–21 rays of 2–30 m.
	for trial := 0; trial < 2000; trial++ {
		rays := make([]Phasor, 9+rng.Intn(13))
		for i := range rays {
			rays[i] = randomPhasor(rng)
		}
		checkPhasorSum(t, "random table", paperW(), rays)
	}
	checkPhasorSum(t, "empty table", paperW(), nil)
	checkPhasorSum(t, "no subcarriers", nil, []Phasor{randomPhasor(rng)})
}

// paperW is −2π·f_k over the 64 subcarriers of 2.4 GHz channel 1.
func paperW() []float64 {
	w := make([]float64, 64)
	for k := range w {
		w[k] = -2 * math.Pi * (2.412e9 - 32*312.5e3 + float64(k)*312.5e3)
	}
	return w
}

// randomPhasor draws a ray like the simulator's: a 2–30 m path, its
// absorption, thermal drift and motion phase.
func randomPhasor(rng *rand.Rand) Phasor {
	length := 2 + 28*rng.Float64()
	return Phasor{
		G:     cmplx.Rect(rng.Float64(), 2*math.Pi*rng.Float64()),
		Att:   math.Exp(-0.04 * length),
		Tau:   length / 299792458.0,
		Base:  0.01 * rng.NormFloat64() * length,
		Extra: 10 * rng.NormFloat64(),
	}
}

// FuzzPhasorSumExact lets the fuzzer pick the table, the subcarrier count and
// how densely edge phases, edge gains and fallback lanes are sown.
func FuzzPhasorSumExact(f *testing.F) {
	f.Add(int64(1), 13, 64, uint8(0))
	f.Add(int64(2), 1, 5, uint8(3))
	f.Add(int64(3), 21, 64, uint8(130))
	f.Add(int64(4), 0, 9, uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, nRays, nSub int, edge uint8) {
		if nRays < 0 || nRays > 40 || nSub < 0 || nSub > 130 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		inRange, fallback := edgePhases()
		every := int(edge&127) + 1
		w := make([]float64, nSub)
		for k := range w {
			w[k] = -2 * math.Pi * (2.4e9 + 1e8*rng.Float64())
			if edge != 0 && rng.Intn(every) == 0 {
				w[k] = inRange[rng.Intn(len(inRange))]
			}
			if edge >= 128 && rng.Intn(every) == 0 {
				w[k] = fallback[rng.Intn(len(fallback))]
			}
		}
		rays := make([]Phasor, nRays)
		for i := range rays {
			rays[i] = randomPhasor(rng)
			if edge != 0 && rng.Intn(every) == 0 {
				rays[i] = unitRay(complex(rng.NormFloat64(), negZero), []float64{0, 5e-324, 1}[rng.Intn(3)])
			}
		}
		checkPhasorSum(t, "fuzz", w, rays)
	})
}
