//go:build !amd64

package tensor

// The AVX2 and AVX-512 kernels exist only on amd64; with useAVX2 and
// useAVX512 compile-time false every dispatch site folds to the generic path
// and these stubs are dead code the linker drops. They panic rather than
// silently compute in case a future edit bypasses the dispatch.
const useAVX2, useAVX512 = false, false

func sparseAxpyF32AVX2(dst *float32, n int, w *float32, idx *int32, val *float32, nz int) {
	panic("tensor: AVX2 kernel called on non-amd64")
}

func denseRowMatMulF32AVX2(dst *float32, n int, a *float32, kMax int, b *float32) {
	panic("tensor: AVX2 kernel called on non-amd64")
}

func sparseDequantAxpyI8AVX2(dst *float32, n int, w *int8, idx *int32, val *float32, nz int) {
	panic("tensor: AVX2 kernel called on non-amd64")
}

func quantMaddU7I8AVX2(dst *int32, n int, packed *int8, act *uint8, groups int) {
	panic("tensor: AVX2 kernel called on non-amd64")
}

func axpy4F64AVX2(dst *float64, dstStride, n int, b *float64, bStride int, a *float64, aLane, aStride, passes int) {
	panic("tensor: AVX2 kernel called on non-amd64")
}

func dot4x4F64AVX2(out *float64, a *float64, b *float64, stride int, k int, blocks int) {
	panic("tensor: AVX2 kernel called on non-amd64")
}

func axpy4F64AVX512(dst *float64, dstStride, n int, b *float64, bStride int, a *float64, aLane, aStride, passes int) {
	panic("tensor: AVX-512 kernel called on non-amd64")
}

func dot2x4F64AVX512(out *float64, outStride int, a *float64, b *float64, stride int, k int, blocks int) {
	panic("tensor: AVX-512 kernel called on non-amd64")
}

func reluCompactF32AVX2(idx *int32, val *float32, src *float32, n int) int {
	panic("tensor: AVX2 kernel called on non-amd64")
}

func compactNonzeroF32AVX2(idx *int32, val *float32, src *float32, n int) int {
	panic("tensor: AVX2 kernel called on non-amd64")
}

func phasorSumAVX2(re, im, w *float64, blocks int, rays *Phasor, n int) int {
	panic("tensor: AVX2 kernel called on non-amd64")
}
