package tensor

import "fmt"

// SIMD kernel dispatch (DESIGN.md §14).
//
// The float32 and int8 inference kernels, the float64 training matmuls and
// the phasor sum exist twice: a portable pure-Go implementation (this file,
// f32.go, tensor.go and phasor.go — the reproduction reference, active
// under OCCU_KERNEL=generic and on every non-amd64 GOARCH) and a
// hand-written AVX2 implementation (simd_amd64.s) selected at process start
// by internal/cpukit. Dispatch is a single package-level bool read at init,
// never per call: one process, one kernel, reported at startup and in
// /metrics.
//
// Equivalence contracts, enforced by simd_test.go, simd_f64_test.go,
// phasor_test.go and their fuzzers:
//
//   - float64 kernels (axpy4F64 under MatMul/MatMulATB/RowMatMulInto, the
//     four-accumulator dot under MatMulABT): exact. The AVX2 forms use
//     separate multiply and add instructions, never FMA, and add in the
//     generic statement's order, so every lane rounds as the scalar code
//     does: trained weights, checkpoints and goldens have the same bits
//     under either kernel, and the tests compare Float64bits.
//   - float kernels (sparseAxpyF32, denseRowMatMul, sparseDequantAxpyI8):
//     AVX2 fuses multiply-adds and regroups the k accumulation 4-wide, so
//     results diverge from generic by a few float32 ulps per accumulated
//     term — bounded, never bit-asserted. End-to-end admission is gated by
//     core.RunDivergence exactly like reduced precision was (§12).
//   - integer kernel (quantMaddU7I8): exact. Both implementations compute
//     the same int32 sums, so they agree bit for bit; the parity test uses
//     ==, not a tolerance.
//   - the channel simulator's ray sum (PhasorSumInto, phasor.go): exact,
//     like the float64 kernels — math.Sincos's reduction and polynomials in
//     its order, separate multiplies and adds — with the inputs whose exact
//     result the kernel cannot promise handed to the generic loop
//     (TestPhasorSumExact, FuzzPhasorSumExact).
//   - under KernelGeneric, the exported entry points run byte-for-byte the
//     pre-SIMD scalar code paths, so OCCU_KERNEL=generic reproduces every
//     historical result bit-identically.

// sparseAxpyF32Generic is the scalar reference for the sparse
// activation × weight-rows accumulation: dst[j] += Σ_k val[k]·b[idx[k]·n+j],
// k-groups unrolled 8-, 4-, then 1-wide — the exact loop SparseRowMatMulF32Into
// has always run.
func sparseAxpyF32Generic(dst []float32, b *MatrixF32, idx []int32, val []float32) {
	n := b.Cols
	nz := len(idx)
	k := 0
	for ; k+8 <= nz; k += 8 {
		a0, a1, a2, a3 := val[k], val[k+1], val[k+2], val[k+3]
		a4, a5, a6, a7 := val[k+4], val[k+5], val[k+6], val[k+7]
		b0 := b.Data[int(idx[k])*n : int(idx[k])*n+n]
		b1 := b.Data[int(idx[k+1])*n : int(idx[k+1])*n+n]
		b2 := b.Data[int(idx[k+2])*n : int(idx[k+2])*n+n]
		b3 := b.Data[int(idx[k+3])*n : int(idx[k+3])*n+n]
		b4 := b.Data[int(idx[k+4])*n : int(idx[k+4])*n+n]
		b5 := b.Data[int(idx[k+5])*n : int(idx[k+5])*n+n]
		b6 := b.Data[int(idx[k+6])*n : int(idx[k+6])*n+n]
		b7 := b.Data[int(idx[k+7])*n : int(idx[k+7])*n+n]
		for j := range dst {
			dst[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j] +
				a4*b4[j] + a5*b5[j] + a6*b6[j] + a7*b7[j]
		}
	}
	for ; k+4 <= nz; k += 4 {
		a0, a1, a2, a3 := val[k], val[k+1], val[k+2], val[k+3]
		b0 := b.Data[int(idx[k])*n : int(idx[k])*n+n]
		b1 := b.Data[int(idx[k+1])*n : int(idx[k+1])*n+n]
		b2 := b.Data[int(idx[k+2])*n : int(idx[k+2])*n+n]
		b3 := b.Data[int(idx[k+3])*n : int(idx[k+3])*n+n]
		for j := range dst {
			dst[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
		}
	}
	for ; k < nz; k++ {
		av := val[k]
		bk := b.Data[int(idx[k])*n : int(idx[k])*n+n]
		for j := range dst {
			dst[j] += av * bk[j]
		}
	}
}

// SparseRowMatMulI8Into computes dst = bias + scale·Σ_k val[k]·w[idx[k]·n+j]
// over int8 weights (row-major in×n) — one compacted activation row times a
// quantised Dense layer, accumulating in float32 with the symmetric layer
// scale applied in the epilogue. Under the AVX2 kernel the int8 rows are
// widened eight lanes at a time instead of per element; results diverge from
// generic only by float accumulation grouping. len(dst) and len(bias) must
// equal n; every idx[k] must be a valid row.
func SparseRowMatMulI8Into(dst, bias []float32, w []int8, n int, scale float32, idx []int32, val []float32) {
	if len(dst) != n || len(bias) != n {
		panic(fmt.Sprintf("tensor: SparseRowMatMulI8Into dst/bias length %d/%d != cols %d",
			len(dst), len(bias), n))
	}
	if useAVX2 {
		for j := range dst {
			dst[j] = 0
		}
		if len(idx) > 0 && n > 0 {
			sparseDequantAxpyI8AVX2(&dst[0], n, &w[0], &idx[0], &val[0], len(idx))
		}
		for j := range dst {
			dst[j] = dst[j]*scale + bias[j]
		}
		return
	}
	sparseRowMatMulI8Generic(dst, bias, w, n, scale, idx, val)
}

// sparseRowMatMulI8Generic is the scalar int8 kernel, verbatim the loop the
// pre-SIMD int8 arena ran (4-wide k groups, per-element widening, scale+bias
// epilogue).
func sparseRowMatMulI8Generic(dst, bias []float32, w []int8, n int, scale float32, idx []int32, val []float32) {
	for j := range dst {
		dst[j] = 0
	}
	nz := len(idx)
	k := 0
	for ; k+4 <= nz; k += 4 {
		a0, a1, a2, a3 := val[k], val[k+1], val[k+2], val[k+3]
		b0 := w[int(idx[k])*n : int(idx[k])*n+n]
		b1 := w[int(idx[k+1])*n : int(idx[k+1])*n+n]
		b2 := w[int(idx[k+2])*n : int(idx[k+2])*n+n]
		b3 := w[int(idx[k+3])*n : int(idx[k+3])*n+n]
		for j := range dst {
			dst[j] += a0*float32(b0[j]) + a1*float32(b1[j]) + a2*float32(b2[j]) + a3*float32(b3[j])
		}
	}
	for ; k < nz; k++ {
		av := val[k]
		bk := w[int(idx[k])*n : int(idx[k])*n+n]
		for j := range dst {
			dst[j] += av * float32(bk[j])
		}
	}
	for j := range dst {
		dst[j] = dst[j]*scale + bias[j]
	}
}

// PackI8KQuad repacks a row-major in×n int8 weight matrix into the k-quad
// layout quantMaddU7I8 consumes: ⌈in/4⌉ groups of four consecutive k rows,
// each group storing the four weights w[4g..4g+3][j] as adjacent bytes for
// every column j (missing rows of the final group are zero — a zero weight
// contributes nothing to any dot product). The packed form is what lets one
// VPMADDUBSW touch four k terms of eight columns at once.
func PackI8KQuad(w []int8, in, n int) []int8 {
	if len(w) != in*n {
		panic(fmt.Sprintf("tensor: PackI8KQuad weight length %d != %d*%d", len(w), in, n))
	}
	groups := (in + 3) / 4
	out := make([]int8, groups*n*4)
	for k := 0; k < in; k++ {
		g, r := k/4, k%4
		for j := 0; j < n; j++ {
			out[(g*n+j)*4+r] = w[k*n+j]
		}
	}
	return out
}

// QuantMaddU7I8Into computes dst[j] = Σ_g Σ_r act[4g+r]·packed[(g·n+j)·4+r]
// in int32 — the integer core of the quantised-activation forward pass, over
// PackI8KQuad-packed weights. Every act byte MUST be ≤ 127 (QuantizeU7F32Into
// guarantees this): that headroom is what makes the AVX2 VPMADDUBSW stage
// saturation-free and therefore bit-identical to the pure-Go arithmetic.
// len(act) must be a multiple of 4 (pad with zero bytes — zero activations
// are exact no-ops) and len(packed) must cover len(act)/4 groups.
func QuantMaddU7I8Into(dst []int32, n int, packed []int8, act []uint8) {
	if len(dst) != n {
		panic(fmt.Sprintf("tensor: QuantMaddU7I8Into dst length %d != cols %d", len(dst), n))
	}
	if len(act)%4 != 0 {
		panic(fmt.Sprintf("tensor: QuantMaddU7I8Into act length %d not a multiple of 4", len(act)))
	}
	groups := len(act) / 4
	if len(packed) < groups*n*4 {
		panic(fmt.Sprintf("tensor: QuantMaddU7I8Into packed length %d < %d groups × %d cols × 4",
			len(packed), groups, n))
	}
	for j := range dst {
		dst[j] = 0
	}
	if n == 0 || groups == 0 {
		return
	}
	if useAVX2 {
		quantMaddU7I8AVX2(&dst[0], n, &packed[0], &act[0], groups)
		return
	}
	quantMaddU7I8Generic(dst, n, packed, act, groups)
}

// quantMaddU7I8Generic is the exact integer twin of the VPMADDUBSW kernel.
func quantMaddU7I8Generic(dst []int32, n int, packed []int8, act []uint8, groups int) {
	for g := 0; g < groups; g++ {
		p := packed[g*n*4 : (g+1)*n*4]
		a0 := int32(act[4*g])
		a1 := int32(act[4*g+1])
		a2 := int32(act[4*g+2])
		a3 := int32(act[4*g+3])
		for j := 0; j < n; j++ {
			q := p[j*4 : j*4+4]
			dst[j] += a0*int32(q[0]) + a1*int32(q[1]) + a2*int32(q[2]) + a3*int32(q[3])
		}
	}
}

// QuantizeU7F32Into quantises a non-negative float32 activation vector to
// 0..127 bytes with one dynamic per-row scale: scale = max(src)/127,
// dst[i] = round(src[i]/scale). Returns the scale (1 for an all-zero row,
// where every byte is 0 and any scale dequantises exactly). The 7-bit range
// is deliberate — see QuantMaddU7I8Into. Inputs must be ≥ 0 (the quantised
// path only runs on post-ReLU activations); the result is a pure function
// of src, preserving the per-row determinism contract.
func QuantizeU7F32Into(dst []uint8, src []float32) (scale float32) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: QuantizeU7F32Into dst length %d != src %d", len(dst), len(src)))
	}
	var max float32
	for _, v := range src {
		if v > max {
			max = v
		}
	}
	if max == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return 1
	}
	inv := 127 / max
	for i, v := range src {
		dst[i] = uint8(v*inv + 0.5)
	}
	return max / 127
}
