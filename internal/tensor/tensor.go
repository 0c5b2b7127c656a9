// Package tensor provides dense float64 vectors and matrices with the
// numeric kernels the rest of the repository builds on: elementwise
// arithmetic, parallel matrix multiplication, linear solves via Cholesky
// factorisation, reductions, and random initialisation.
//
// The design goal is predictability rather than peak throughput: row-major
// storage, explicit dimensions, and panics on shape mismatch (shape errors
// are programming bugs, not runtime conditions).
package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/parallel"
)

// Matrix is a dense, row-major matrix of float64 values.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewMatrix allocates a zeroed r×c matrix.
func NewMatrix(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// FromSlice wraps data (row-major, length r*c) in a Matrix without copying.
func FromSlice(r, c int, data []float64) *Matrix {
	if len(data) != r*c {
		panic(fmt.Sprintf("tensor: FromSlice length %d != %d*%d", len(data), r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: data}
}

// EnsureShape returns a matrix of shape r×c for use as scratch, reusing m
// where possible — the idiom the nn training hot path uses to avoid
// re-allocating per batch. When m already has the shape it is returned
// as-is; when its backing array has enough capacity it is resliced IN PLACE
// to the new shape (so alternating between a full and a tail batch shape,
// as every epoch of nn.Fit does, costs nothing after the first epoch);
// otherwise a fresh matrix is allocated. The returned matrix's contents are
// unspecified: callers must overwrite (or Zero) every element. Because m
// may be mutated, callers must not hold other views of it that rely on its
// previous shape.
func EnsureShape(m *Matrix, r, c int) *Matrix {
	if m == nil {
		return NewMatrix(r, c)
	}
	if m.Rows == r && m.Cols == c {
		return m
	}
	if cap(m.Data) >= r*c {
		m.Rows, m.Cols = r, c
		m.Data = m.Data[:r*c]
		return m
	}
	return NewMatrix(r, c)
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Zero resets every element to zero in place.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets every element to v in place.
func (m *Matrix) Fill(v float64) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// String renders a compact textual form, eliding large matrices.
func (m *Matrix) String() string {
	if m.Rows*m.Cols <= 64 {
		s := fmt.Sprintf("Matrix(%dx%d)[", m.Rows, m.Cols)
		for i := 0; i < m.Rows; i++ {
			if i > 0 {
				s += "; "
			}
			for j := 0; j < m.Cols; j++ {
				if j > 0 {
					s += " "
				}
				s += fmt.Sprintf("%.4g", m.At(i, j))
			}
		}
		return s + "]"
	}
	return fmt.Sprintf("Matrix(%dx%d)", m.Rows, m.Cols)
}

// SameShape reports whether m and o have identical dimensions.
func (m *Matrix) SameShape(o *Matrix) bool { return m.Rows == o.Rows && m.Cols == o.Cols }

// Scale multiplies every element by s in place and returns m.
func (m *Matrix) Scale(s float64) *Matrix {
	for i := range m.Data {
		m.Data[i] *= s
	}
	return m
}

// matmulParallelThreshold is the multiply-accumulate count above which the
// matmul kernels fan out across goroutines. Re-measured with the AVX2 kernels
// (ISSUE 19) on the three training widths 66→128, 128→256 and 256→128 at
// batch 4..256, serial against parallelRows at 2 workers and at 4 (Xeon
// 2.1 GHz, 2 vCPUs, so the 4-worker column is oversubscribed): one kernel
// runs ≈ 9 MACs/ns, so 2^17 MACs — the old threshold, set when the scalar
// loops took ~100 µs for 2^18 — is ≈ 14 µs of work against a spawn+join that
// costs 15–20 µs here. At 2 workers every shape loses below 2^19 (0.5–0.9×),
// 2^19 is break-even (0.72–1.11×), 2^20 is the first size that gains on
// balance (0.87–1.57×, mean 1.22×) and 2^21..2^23 gain 1.1–1.85×; 4 workers
// on 2 vCPUs lose until 2^21 and gain from there. Below the threshold a call
// stays on the caller's goroutine, which is also what keeps small test and
// ablation nets from paying a fork per layer. The same constant gates MatMul,
// MatMulATB and MatMulABT since all three move the same flops per output
// element; results never depend on it (each output row has one fixed order).
const matmulParallelThreshold = 1 << 20

// MatMul computes a×b into dst (allocating when dst is nil) and returns dst.
// dst must not alias a or b.
func MatMul(dst, a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul inner dims %d vs %d", a.Cols, b.Rows))
	}
	if dst == nil {
		dst = NewMatrix(a.Rows, b.Cols)
	} else {
		if dst.Rows != a.Rows || dst.Cols != b.Cols {
			panic("tensor: MatMul dst shape mismatch")
		}
		dst.Zero()
	}
	work := a.Rows * a.Cols * b.Cols
	if work >= matmulParallelThreshold && a.Rows > 1 {
		parallelRows(a.Rows, matmulRange, dst, a, b)
	} else {
		matmulRange(dst, a, b, 0, a.Rows)
	}
	return dst
}

// axpy4F64 is the accumulation statement of every float64 matmul that
// streams rows of b — MatMul, MatMulATB and RowMatMulInto — run for `passes`
// passes. Pass p takes four coefficients a0..a3 from a[p·aStride + l·aLane]
// (l = 0..3), the four n-wide rows b0..b3 that lie back to back from
// b[p·bStride], and the n-wide row of dst from dst[p·dstStride], and does
//
//	dst[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
//
// that is dst[j] + (((a0·b0[j] + a1·b1[j]) + a2·b2[j]) + a3·b3[j]), eight
// roundings and nothing fused. Taking four k steps per pass loads and stores
// dst once instead of four times; taking many passes per call lets a whole
// row of MatMul (dstStride 0, b advancing by four rows) or a whole dst row
// range of one MatMulATB k-block (dst advancing by a row, b fixed) cost one
// call. A pass whose four coefficients all compare equal to zero is skipped:
// adding its +0 would turn a −0 in dst into +0, so the skip is part of the
// result. ±0 count as zero, a NaN does not. Strides are non-negative.
//
// The order is what nn.Fit's trained weights, the arena's row≡batch
// contract and every golden rest on, so it is written exactly twice: the
// loop below, and axpy4F64AVX2 (simd_amd64.s), which does the same
// multiplies and adds four columns to a register, tests the same skip, and
// is therefore bit-identical, not merely close (TestF64KernelExact).
//
// The Go compiler does not fuse x*y + z on amd64 at the default GOAMD64=v1
// (it may at v3, and does on arm64); the identity between the two kernels is
// stated for the build this repository ships and tests.
func axpy4F64(dst []float64, dstStride int, b []float64, bStride int, a []float64, aLane, aStride, passes, n int) {
	if passes <= 0 || n <= 0 {
		return
	}
	// The last pass reaches furthest into every operand; checking it once
	// keeps the kernel inside the slices.
	last := passes - 1
	_ = dst[last*dstStride+n-1]
	_ = b[last*bStride+4*n-1]
	_ = a[last*aStride+3*aLane]
	if useAVX2 {
		axpy4F64AVX2(&dst[0], dstStride, n, &b[0], bStride, &a[0], aLane, aStride, passes)
		return
	}
	for p := 0; p < passes; p++ {
		ap := a[p*aStride:]
		a0, a1, a2, a3 := ap[0], ap[aLane], ap[2*aLane], ap[3*aLane]
		if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
			continue
		}
		d := dst[p*dstStride : p*dstStride+n]
		bp := b[p*bStride : p*bStride+4*n]
		b0, b1, b2, b3 := bp[:n], bp[n:2*n], bp[2*n:3*n], bp[3*n:]
		for j := range d {
			d[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
		}
	}
}

// matmulRow accumulates dst += a·b for one row a (len(a) == b.Rows,
// len(dst) == b.Cols): rows of b in ascending k, four at a time in one
// axpy4F64 call, then the k%4 tail one at a time.
func matmulRow(dst, a []float64, b *Matrix) {
	n := b.Cols
	k4 := len(a) &^ 3
	axpy4F64(dst, 0, b.Data, 4*n, a, 1, 4, k4/4, n)
	for k := k4; k < len(a); k++ {
		if av := a[k]; av != 0 {
			Axpy(dst, av, b.Data[k*n:(k+1)*n])
		}
	}
}

// matmulRange computes rows [lo,hi) of dst = a×b, each row independently and
// in the same order (matmulRow), so how rows are batched or split across
// workers never changes a result.
func matmulRange(dst, a, b *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		matmulRow(dst.Row(i), a.Row(i), b)
	}
}

// RowMatMulInto computes dst = row·b + bias for a single sample without any
// Matrix wrapping — the fused fast path the inference arena uses for the
// 1×N case the 20 Hz stream runtime hits on every frame. bias may be nil.
// len(row) must equal b.Rows and len(dst) must equal b.Cols; dst must not
// alias row or b.Data. The accumulation is MatMul's row loop itself
// (matmulRow), so the result is bit-identical to
// MatMul(nil, FromSlice(1, len(row), row), b).
func RowMatMulInto(dst, row []float64, b *Matrix, bias []float64) {
	if len(row) != b.Rows {
		panic("tensor: RowMatMulInto inner dims")
	}
	if len(dst) != b.Cols {
		panic("tensor: RowMatMulInto dst length")
	}
	if bias != nil && len(bias) != b.Cols {
		panic("tensor: RowMatMulInto bias length")
	}
	for j := range dst {
		dst[j] = 0
	}
	matmulRow(dst, row, b)
	for j, v := range bias {
		dst[j] += v
	}
}

// MatMulATB computes aᵀ×b into dst (allocating when nil). a is m×r, b is m×c,
// result r×c. Avoids materialising the transpose.
func MatMulATB(dst, a, b *Matrix) *Matrix {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulATB outer dims %d vs %d", a.Rows, b.Rows))
	}
	if dst == nil {
		dst = NewMatrix(a.Cols, b.Cols)
	} else {
		if dst.Rows != a.Cols || dst.Cols != b.Cols {
			panic("tensor: MatMulATB dst shape mismatch")
		}
		dst.Zero()
	}
	// Partition over output rows (columns of a): each worker owns a disjoint
	// dst row range and walks the shared, read-only a and b rows in the same
	// k order, so the per-element accumulation order — and therefore the
	// result, bit for bit — is independent of the worker count. This is the
	// Dense backward path (dW = xᵀ·grad), which was the last serial matmul.
	work := a.Rows * a.Cols * b.Cols
	if work >= matmulParallelThreshold && a.Cols > 1 {
		parallelRows(a.Cols, matmulATBRange, dst, a, b)
	} else {
		matmulATBRange(dst, a, b, 0, a.Cols)
	}
	return dst
}

// matmulATBRange computes dst rows [lo,hi) of aᵀ×b, k-outer so the rows of a
// and b stream sequentially: each block of four k steps is one axpy4F64 call
// over the whole row range, with dst row i taking its coefficients from
// column i of a's four rows.
func matmulATBRange(dst, a, b *Matrix, lo, hi int) {
	n := b.Cols
	r := a.Cols
	m := a.Rows
	k4 := m &^ 3
	for k := 0; k < k4; k += 4 {
		axpy4F64(dst.Data[lo*n:], n, b.Data[k*n:], 0, a.Data[k*r+lo:], r, 1, hi-lo, n)
	}
	for k := k4; k < m; k++ {
		ak := a.Row(k)
		bk := b.Row(k)
		for i := lo; i < hi; i++ {
			if av := ak[i]; av != 0 {
				Axpy(dst.Data[i*n:i*n+n], av, bk)
			}
		}
	}
}

// MatMulABT computes a×bᵀ into dst (allocating when nil). a is m×k, b is n×k,
// result m×n. Avoids materialising the transpose.
func MatMulABT(dst, a, b *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulABT inner dims %d vs %d", a.Cols, b.Cols))
	}
	if dst == nil {
		dst = NewMatrix(a.Rows, b.Rows)
	} else {
		if dst.Rows != a.Rows || dst.Cols != b.Rows {
			panic("tensor: MatMulABT dst shape mismatch")
		}
	}
	work := a.Rows * a.Cols * b.Rows
	if work >= matmulParallelThreshold && a.Rows > 1 {
		parallelRows(a.Rows, matmulABTRange, dst, a, b)
	} else {
		matmulABTRange(dst, a, b, 0, a.Rows)
	}
	return dst
}

// matmulABTRange computes dst rows [lo,hi) of a×bᵀ. Each output element is a
// dot product over four independent accumulators s0..s3 — s_l sums the terms
// with k ≡ l (mod 4) in ascending k — reduced as (s0+s1)+(s2+s3), then the
// k%4 tail added one term at a time. Under AVX2 the four accumulators are the
// four lanes of one register and dot4x4F64AVX2 runs four rows of b against
// one load of a, every group of four rows of b in one call per output row;
// multiply and add stay separate instructions, so both paths round
// identically (TestF64KernelExact).
func matmulABTRange(dst, a, b *Matrix, lo, hi int) {
	kMax := a.Cols
	k4 := kMax &^ 3
	j4 := 0
	if useAVX2 && k4 > 0 {
		j4 = b.Rows &^ 3
	}
	for i := lo; i < hi; i++ {
		ai := a.Row(i)
		di := dst.Row(i)
		if j4 > 0 {
			dot4x4F64AVX2(&di[0], &ai[0], &b.Data[0], kMax, k4, j4/4)
		}
		for j := j4; j < b.Rows; j++ {
			bj := b.Data[j*kMax : j*kMax+kMax]
			var s0, s1, s2, s3 float64
			for k := 0; k < k4; k += 4 {
				s0 += ai[k] * bj[k]
				s1 += ai[k+1] * bj[k+1]
				s2 += ai[k+2] * bj[k+2]
				s3 += ai[k+3] * bj[k+3]
			}
			s := (s0 + s1) + (s2 + s3)
			for k := k4; k < kMax; k++ {
				s += ai[k] * bj[k]
			}
			di[j] = s
		}
		if k4 == kMax {
			continue
		}
		for j := 0; j < j4; j++ {
			bj := b.Data[j*kMax : j*kMax+kMax]
			s := di[j]
			for k := k4; k < kMax; k++ {
				s += ai[k] * bj[k]
			}
			di[j] = s
		}
	}
}

// matmulJob carries one parallel matmul's operands across the goroutine
// fan-out in ChunkRunner form. Pooling the struct and passing its pointer as
// the interface keeps the fan-out allocation-free in steady state — the
// closure this replaces heap-allocated its captures on every call, the one
// allocation training-loop profiles showed in BenchmarkMatMul.
type matmulJob struct {
	kernel    func(dst, a, b *Matrix, lo, hi int)
	dst, a, b *Matrix
}

func (j *matmulJob) RunChunk(lo, hi int) { j.kernel(j.dst, j.a, j.b, lo, hi) }

var matmulJobPool = sync.Pool{New: func() any { return new(matmulJob) }}

// parallelRows runs kernel over dst rows [0,n), split into one contiguous
// chunk per available worker via the shared pool. The static partition keeps
// each output row's accumulation order fixed for any worker count (see
// internal/parallel).
func parallelRows(n int, kernel func(dst, a, b *Matrix, lo, hi int), dst, a, b *Matrix) {
	j := matmulJobPool.Get().(*matmulJob)
	j.kernel, j.dst, j.a, j.b = kernel, dst, a, b
	parallel.ForEachChunkRunner(0, n, j)
	*j = matmulJob{}
	matmulJobPool.Put(j)
}

// AddRowVector adds vector v (length Cols) to every row in place.
func (m *Matrix) AddRowVector(v []float64) *Matrix {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("tensor: AddRowVector len %d != cols %d", len(v), m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		ri := m.Row(i)
		for j, x := range v {
			ri[j] += x
		}
	}
	return m
}

// ColSums returns the per-column sums.
func (m *Matrix) ColSums() []float64 {
	out := make([]float64, m.Cols)
	for i := 0; i < m.Rows; i++ {
		for j, v := range m.Row(i) {
			out[j] += v
		}
	}
	return out
}

// ColMeans returns the per-column means (zero for an empty matrix).
func (m *Matrix) ColMeans() []float64 {
	out := m.ColSums()
	if m.Rows == 0 {
		return out
	}
	inv := 1 / float64(m.Rows)
	for j := range out {
		out[j] *= inv
	}
	return out
}

// MaxAbs returns the largest absolute element value (0 for empty).
func (m *Matrix) MaxAbs() float64 {
	var mx float64
	for _, v := range m.Data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// Randomize fills the matrix with uniform values in [-scale, scale).
func (m *Matrix) Randomize(rng *rand.Rand, scale float64) *Matrix {
	for i := range m.Data {
		m.Data[i] = (rng.Float64()*2 - 1) * scale
	}
	return m
}

// RandomizeNormal fills the matrix with N(0, sigma²) values.
func (m *Matrix) RandomizeNormal(rng *rand.Rand, sigma float64) *Matrix {
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64() * sigma
	}
	return m
}

// KaimingInit applies He-uniform initialisation for a layer with fanIn
// inputs, the standard scheme for ReLU networks.
func (m *Matrix) KaimingInit(rng *rand.Rand, fanIn int) *Matrix {
	if fanIn <= 0 {
		fanIn = 1
	}
	bound := math.Sqrt(6.0 / float64(fanIn))
	return m.Randomize(rng, bound)
}
