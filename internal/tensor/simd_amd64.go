//go:build amd64

package tensor

import (
	"math/bits"

	"repro/internal/cpukit"
)

// useAVX2 routes the float32/int8 inference kernels and the float64 training
// matmuls through the hand-written AVX2 assembly in simd_amd64.s. Read once
// at init from cpukit's process-wide selection (hardware detection +
// OCCU_KERNEL override), so every dispatch site in this package serves the
// whole process lifetime through one kernel — the property the startup log,
// /metrics gauge and core.DivergenceResult.Kernel all report on.
var useAVX2 = cpukit.Active() == cpukit.KernelAVX2

// The assembly kernels. All pointers must reference slices with enough
// elements for the stated shape; nz/kMax/groups of zero are legal no-ops.
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
func axpy4F64AVX2(dst *float64, n int, b *float64, a0, a1, a2, a3 float64)

//go:noescape
func dot4x4F64AVX2(out *float64, a *float64, b *float64, stride int, k int)

//go:noescape
func reluCompactF32AVX2(idx *int32, val *float32, src *float32, n int) int

//go:noescape
func compactNonzeroF32AVX2(idx *int32, val *float32, src *float32, n int) int

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
