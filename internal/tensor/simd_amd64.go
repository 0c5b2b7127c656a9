//go:build amd64

package tensor

import (
	"math"
	"math/bits"

	"repro/internal/cpukit"
)

// useAVX2 routes the float32/int8 inference kernels and the float64 training
// matmuls through the hand-written AVX2 assembly in simd_amd64.s; useAVX512
// (a tier above, so useAVX2 holds too) moves the two float64 matmul kernels
// onto their 512-bit twins. Read once at init from cpukit's process-wide
// selection (hardware detection + OCCU_KERNEL override), so every dispatch
// site in this package serves the whole process lifetime through one kernel
// — the property the startup log, /metrics gauge and
// core.DivergenceResult.Kernel all report on.
var useAVX2, useAVX512 = cpukit.Active() >= cpukit.KernelAVX2, cpukit.Active() >= cpukit.KernelAVX512

// The assembly kernels. All pointers must reference slices with enough
// elements for the stated shape; nz/kMax/groups/passes/blocks of zero are
// legal no-ops.
// See simd_amd64.s for the per-kernel contracts.

//go:noescape
func sparseAxpyF32AVX2(dst *float32, n int, w *float32, idx *int32, val *float32, nz int)

//go:noescape
func denseRowMatMulF32AVX2(dst *float32, n int, a *float32, kMax int, b *float32)

//go:noescape
func sparseDequantAxpyI8AVX2(dst *float32, n int, w *int8, idx *int32, val *float32, nz int)

//go:noescape
func quantMaddU7I8AVX2(dst *int32, n int, packed *int8, act *uint8, groups int)

//go:noescape
func axpy4F64AVX2(dst *float64, dstStride, n int, b *float64, bStride int, a *float64, aLane, aStride, passes int)

//go:noescape
func dot4x4F64AVX2(out *float64, a *float64, b *float64, stride int, k int, blocks int)

//go:noescape
func axpy4F64AVX512(dst *float64, dstStride, n int, b *float64, bStride int, a *float64, aLane, aStride, passes int)

//go:noescape
func dot2x4F64AVX512(out *float64, outStride int, a *float64, b *float64, stride int, k int, blocks int)

//go:noescape
func reluCompactF32AVX2(idx *int32, val *float32, src *float32, n int) int

//go:noescape
func compactNonzeroF32AVX2(idx *int32, val *float32, src *float32, n int) int

//go:noescape
func phasorSumAVX2(re, im, w *float64, blocks int, rays *Phasor, n int) int

// phasorConst holds phasorSumAVX2's constants, each repeated in four lanes so
// the kernel takes them as memory operands; the comments give the assembly's
// byte offsets. The π/4 parts and both polynomials are math.Sincos's own
// (math/sincos.go, math/sin.go), restated literal for literal.
var phasorConst = func() (c [22][4]float64) {
	for i, v := range [...]float64{
		4 / math.Pi,                 // 0
		7.85398125648498535156e-1,   // 32: π/4 = PI4A + PI4B + PI4C
		3.77489470793079817668e-8,   // 64
		2.69515142907905952645e-15,  // 96
		1 << 52,                     // 128: adding it puts an integral lane's bits in the mantissa
		math.Float64frombits(1),     // 160: the integer 1, for the octant's parity
		math.Copysign(0, -1),        // 192: the sign bit
		1 << 29,                     // 224: math.Sincos's Payne–Hanek threshold
		0.5,                         // 256
		1,                           // 288
		-1.13585365213876817300e-11, // 320: cos coefficients
		2.08757008419747316778e-9,
		-2.75573141792967388112e-7,
		2.48015872888517045348e-5,
		-1.38888888888730564116e-3,
		4.16666666666665929218e-2,
		1.58962301576546568060e-10, // 512: sin coefficients
		-2.50507477628578072866e-8,
		2.75573136213857245213e-6,
		-1.98412698295895385996e-4,
		8.33333333332211858878e-3,
		-1.66666666666666307295e-1,
	} {
		c[i] = [4]float64{v, v, v, v}
	}
	return c
}()

// The compaction kernels' lookup tables, indexed by the 8-bit lane mask of
// one compare: compactPerm[m] holds the positions of m's set bits in
// ascending order (the left-packing permutation; entries past the popcount
// are 0 and move scratch), compactCount[m] the popcount. 2304 bytes
// together; compactPerm[255] doubles as the kernel's 0..7 lane-index seed.
var compactPerm, compactCount = func() (perm [256][8]uint8, count [256]uint8) {
	for m := range perm {
		count[m] = uint8(bits.OnesCount8(uint8(m)))
		n := 0
		for lane := uint8(0); lane < 8; lane++ {
			if m>>lane&1 != 0 {
				perm[m][n] = lane
				n++
			}
		}
	}
	return perm, count
}()
