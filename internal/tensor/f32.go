package tensor

import (
	"fmt"
	"math"
)

// MatrixF32 is a dense, row-major matrix of float32 values — the
// reduced-precision mirror of Matrix for the inference hot path. The
// repository's deployment format (internal/nn serialize) already stores
// weights as float32; MatrixF32 lets the forward pass compute in that
// precision instead of widening every weight back to float64.
//
// Only the kernels the reduced-precision serving path needs live here;
// training stays float64 end to end.
type MatrixF32 struct {
	Rows, Cols int
	Data       []float32 // len == Rows*Cols, row-major
}

// NewMatrixF32 allocates a zeroed r×c float32 matrix.
func NewMatrixF32(r, c int) *MatrixF32 {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", r, c))
	}
	return &MatrixF32{Rows: r, Cols: c, Data: make([]float32, r*c)}
}

// FromMatrixF32 converts a float64 matrix to float32 by rounding every
// element — exactly the narrowing the float32 deployment format applies on
// save, so converting an in-memory model and loading a serialised one yield
// bit-identical MatrixF32 contents.
func FromMatrixF32(m *Matrix) *MatrixF32 {
	out := NewMatrixF32(m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = float32(v)
	}
	return out
}

// MatMulF32 computes dst = a × b in float32. Under the generic kernel each
// output row runs the same 4-wide unrolled ikj loop as the float64 kernel
// (see matmulRow); under the AVX2 kernel rows go through the FMA assembly
// in simd_amd64.s. Either way a row is accumulated independently in a fixed
// order, so batching never changes its bits — the determinism contract the
// serving engine relies on (which kernel produced the bits is a process-wide
// constant, see simd.go). Shapes must agree (a: m×k, b: k×n, dst: m×n); dst
// must not alias a or b.
func MatMulF32(dst, a, b *MatrixF32) *MatrixF32 {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulF32 shape mismatch %dx%d * %dx%d -> %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	n := b.Cols
	kMax := a.Cols
	if useAVX2 && n > 0 && kMax > 0 {
		for i := 0; i < a.Rows; i++ {
			di := dst.Data[i*n : i*n+n]
			for j := range di {
				di[j] = 0
			}
			denseRowMatMulF32AVX2(&di[0], n, &a.Data[i*kMax], kMax, &b.Data[0])
		}
		return dst
	}
	for i := 0; i < a.Rows; i++ {
		ai := a.Data[i*kMax : i*kMax+kMax]
		di := dst.Data[i*n : i*n+n]
		for j := range di {
			di[j] = 0
		}
		k := 0
		for ; k+4 <= kMax; k += 4 {
			a0, a1, a2, a3 := ai[k], ai[k+1], ai[k+2], ai[k+3]
			if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
				continue
			}
			b0 := b.Data[k*n : k*n+n]
			b1 := b.Data[(k+1)*n : (k+1)*n+n]
			b2 := b.Data[(k+2)*n : (k+2)*n+n]
			b3 := b.Data[(k+3)*n : (k+3)*n+n]
			for j := range di {
				di[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
			}
		}
		for ; k < kMax; k++ {
			av := ai[k]
			if av == 0 {
				continue
			}
			bk := b.Data[k*n : k*n+n]
			for j := range di {
				di[j] += av * bk[j]
			}
		}
	}
	return dst
}

// CompactNonzeroF32 gathers the nonzero entries of src into (idx, val) and
// returns how many there are. idx and val must each hold len(src) entries.
// This is the activation-compaction step of the sparse forward kernels: a
// ReLU layer zeroes roughly half its outputs, and skipping those rows of the
// next weight matrix is where the reduced-precision path's speedup comes
// from (the scalar f32 and f64 kernels are equally compute-bound on this
// workload — see DESIGN.md §12). The scan order depends only on src itself,
// preserving the per-row determinism contract.
//
// Under the AVX2 kernel the leading multiple of eight entries go through
// compactNonzeroF32AVX2, which is exact — the same count and the same
// (idx, val)[:count] as the Go loop for every bit pattern (NaNs are nonzero,
// ±0 are not); entries at and beyond the count are scratch either way.
func CompactNonzeroF32(idx []int32, val []float32, src []float32) int {
	if !useAVX2 {
		return compactNonzeroF32Generic(idx, val, src, 0)
	}
	checkCompactRoom("CompactNonzeroF32", idx, val, src)
	nz, k := 0, len(src)&^7
	if k > 0 {
		nz = compactNonzeroF32AVX2(&idx[0], &val[0], &src[0], k)
	}
	return nz + compactNonzeroF32Generic(idx[nz:], val[nz:], src[k:], k)
}

// compactNonzeroF32Generic is the scalar compaction loop; entry k of src is
// reported as index base+k.
func compactNonzeroF32Generic(idx []int32, val []float32, src []float32, base int) int {
	nz := 0
	for k, v := range src {
		if v != 0 {
			idx[nz] = int32(base + k)
			val[nz] = v
			nz++
		}
	}
	return nz
}

// checkCompactRoom is the bounds check the vector compaction kernels cannot
// make themselves: they store eight lanes at the cursor, scratch included,
// so idx and val must hold len(src) entries whatever the count turns out to
// be (the scalar loops get the same guarantee one index at a time).
func checkCompactRoom(name string, idx []int32, val []float32, src []float32) {
	if len(idx) < len(src) || len(val) < len(src) {
		panic(fmt.Sprintf("tensor: %s idx/val length %d/%d < src %d", name, len(idx), len(val), len(src)))
	}
}

// ReLUCompactF32 applies ReLU to src and gathers the surviving (positive)
// entries into (idx, val), returning the count — CompactNonzeroF32 fused
// with the activation so a Dense→ReLU→Dense chain touches the activation
// vector exactly once. Entries of idx and val at and beyond the returned
// count are scratch. Under the AVX2 kernel the leading multiple of eight
// entries go through reluCompactF32AVX2, exact in the same sense as
// CompactNonzeroF32's kernel.
func ReLUCompactF32(idx []int32, val []float32, src []float32) int {
	if !useAVX2 {
		return reluCompactF32Generic(idx, val, src, 0)
	}
	checkCompactRoom("ReLUCompactF32", idx, val, src)
	nz, k := 0, len(src)&^7
	if k > 0 {
		nz = reluCompactF32AVX2(&idx[0], &val[0], &src[0], k)
	}
	return nz + reluCompactF32Generic(idx[nz:], val[nz:], src[k:], k)
}

// reluCompactF32Generic is the scalar ReLU compaction loop; entry k of src
// is reported as index base+k.
//
// The sign of a pre-activation is a coin toss to the branch predictor, so
// there is no branch on it: every entry is stored at the cursor and the
// cursor advances by the predicate. v > 0 holds exactly for the bit patterns
// 0x00000001..0x7F800000 (positive subnormals up to +Inf; ±0, negatives and
// NaNs of either sign fall outside), which one subtraction and a borrow
// test.
func reluCompactF32Generic(idx []int32, val []float32, src []float32, base int) int {
	nz := 0
	for k, v := range src {
		idx[nz] = int32(base + k)
		val[nz] = v
		nz += int((uint64(math.Float32bits(v)-1) - 0x7F800000) >> 63)
	}
	return nz
}

// SparseRowMatMulF32Into computes dst = bias + Σ_k val[k]·b.Row(idx[k]) —
// one activation row (in compacted nonzero form) times a dense In×Out
// weight matrix, with the accumulator initialised from the bias so no
// separate zeroing or bias pass is needed. Each output element accumulates
// in a fixed order determined only by (idx, val) and the active kernel
// (generic: 8/4/1-wide unrolled k-groups, see sparseAxpyF32Generic; AVX2:
// FMA over 8-lane vectors), so the result is a pure function of the row and
// the weights. len(dst) and len(bias) must equal b.Cols; every idx[k] must
// be a valid row of b.
func SparseRowMatMulF32Into(dst, bias []float32, b *MatrixF32, idx []int32, val []float32) {
	if len(dst) != b.Cols || len(bias) != b.Cols {
		panic(fmt.Sprintf("tensor: SparseRowMatMulF32Into dst/bias length %d/%d != cols %d",
			len(dst), len(bias), b.Cols))
	}
	copy(dst, bias)
	if useAVX2 {
		if len(idx) > 0 && b.Cols > 0 {
			sparseAxpyF32AVX2(&dst[0], b.Cols, &b.Data[0], &idx[0], &val[0], len(idx))
		}
		return
	}
	sparseAxpyF32Generic(dst, b, idx, val)
}

// SparseRowDotColumnF64 computes bias + Σ_k val[k]·b.At(idx[k], col),
// accumulating in float64. It serves the final 1-wide logit layer of the
// reduced-precision pipeline: the one place widening the accumulator
// matters for stability (a long dot product feeding a sigmoid) and costs
// almost nothing (one column, ~hidden-width multiply-adds per sample).
func SparseRowDotColumnF64(b *MatrixF32, bias float64, col int, idx []int32, val []float32) float64 {
	n := b.Cols
	acc := bias
	for k, id := range idx {
		acc += float64(val[k]) * float64(b.Data[int(id)*n+col])
	}
	return acc
}
