//go:build amd64

package tensor

import "repro/internal/cpukit"

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
