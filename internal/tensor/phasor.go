package tensor

import (
	"fmt"
	"math"
	"math/cmplx"
)

// Phasor is one ray of a multipath channel: complex gain G, amplitude Att,
// delay Tau and the phase offsets Base and Extra. PhasorSumInto evaluates it
// at radian frequency w as G · Att·e^{i((w·Tau + Base) + Extra)}.
type Phasor struct {
	G                     complex128
	Att, Tau, Base, Extra float64
}

// PhasorSumInto sums a ray table over len(w) subcarriers:
//
//	complex(re[k], im[k]) = Σ_r r.G · cmplx.Rect(r.Att, (w[k]·r.Tau + r.Base) + r.Extra)
//
// accumulated from zero in table order. The AVX2 kernel evaluates four
// subcarriers at a time with math.Sincos's own reduction and polynomials and
// no fused multiply-add, so it is bit-identical to the generic loop
// (DESIGN.md §14); the cases it does not take run the generic loop instead —
// a table with a non-finite field, and any block of four whose phases are
// non-finite or ≥ 2²⁹, where math.Sincos switches to Payne–Hanek reduction.
// len(re) and len(im) must equal len(w).
func PhasorSumInto(re, im, w []float64, rays []Phasor) {
	if len(re) != len(w) || len(im) != len(w) {
		panic(fmt.Sprintf("tensor: PhasorSumInto re/im length %d/%d != %d subcarriers", len(re), len(im), len(w)))
	}
	k := 0
	if useAVX2 && len(rays) > 0 && finitePhasors(rays) {
		for k+4 <= len(w) {
			k += 4 * phasorSumAVX2(&re[k], &im[k], &w[k], (len(w)-k)/4, &rays[0], len(rays))
			if k+4 <= len(w) { // the kernel stopped at a block it does not take
				phasorSumGeneric(re[k:k+4], im[k:k+4], w[k:k+4], rays)
				k += 4
			}
		}
	}
	phasorSumGeneric(re[k:], im[k:], w[k:], rays)
}

// phasorSumGeneric is the scalar reference: the per-subcarrier loop of the
// channel simulator from before the kernel existed.
func phasorSumGeneric(re, im, w []float64, rays []Phasor) {
	for k, wk := range w {
		var h complex128
		for _, r := range rays {
			h += r.G * cmplx.Rect(r.Att, wk*r.Tau+r.Base+r.Extra)
		}
		re[k], im[k] = real(h), imag(h)
	}
}

// finitePhasors reports whether every field of every ray is finite. Only
// then can the kernel's operand order not matter: the one NaN finite inputs
// can produce is the default NaN, whichever operand it came from.
func finitePhasors(rays []Phasor) bool {
	for _, r := range rays {
		for _, v := range [...]float64{real(r.G), imag(r.G), r.Att, r.Tau, r.Base, r.Extra} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
	}
	return true
}
