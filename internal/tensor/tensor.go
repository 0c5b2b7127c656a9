// Package tensor provides dense float64 vectors and matrices with the
// numeric kernels the rest of the repository builds on: elementwise
// arithmetic, blocked and parallel matrix multiplication, linear solves via
// Cholesky factorisation, reductions, and random initialisation.
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

// FromRows builds a matrix by copying the given rows, which must all have
// equal length.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	c := len(rows[0])
	m := NewMatrix(len(rows), c)
	for i, row := range rows {
		if len(row) != c {
			panic(fmt.Sprintf("tensor: ragged row %d: len %d != %d", i, len(row), c))
		}
		copy(m.Data[i*c:(i+1)*c], row)
	}
	return m
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

func (m *Matrix) mustSameShape(o *Matrix, op string) {
	if !m.SameShape(o) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, m.Rows, m.Cols, o.Rows, o.Cols))
	}
}

// Add adds o into m element-wise, in place, and returns m.
func (m *Matrix) Add(o *Matrix) *Matrix {
	m.mustSameShape(o, "Add")
	for i, v := range o.Data {
		m.Data[i] += v
	}
	return m
}

// Sub subtracts o from m element-wise, in place, and returns m.
func (m *Matrix) Sub(o *Matrix) *Matrix {
	m.mustSameShape(o, "Sub")
	for i, v := range o.Data {
		m.Data[i] -= v
	}
	return m
}

// MulElem multiplies m by o element-wise (Hadamard), in place, returns m.
func (m *Matrix) MulElem(o *Matrix) *Matrix {
	m.mustSameShape(o, "MulElem")
	for i, v := range o.Data {
		m.Data[i] *= v
	}
	return m
}

// Scale multiplies every element by s in place and returns m.
func (m *Matrix) Scale(s float64) *Matrix {
	for i := range m.Data {
		m.Data[i] *= s
	}
	return m
}

// AddScaled adds s*o into m in place (axpy) and returns m.
func (m *Matrix) AddScaled(s float64, o *Matrix) *Matrix {
	m.mustSameShape(o, "AddScaled")
	for i, v := range o.Data {
		m.Data[i] += s * v
	}
	return m
}

// Apply replaces each element x with f(x) in place and returns m.
func (m *Matrix) Apply(f func(float64) float64) *Matrix {
	for i, v := range m.Data {
		m.Data[i] = f(v)
	}
	return m
}

// T returns a newly allocated transpose.
func (m *Matrix) T() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		ri := m.Row(i)
		for j, v := range ri {
			out.Data[j*m.Rows+i] = v
		}
	}
	return out
}

// matmulParallelThreshold is the multiply-accumulate count above which the
// matmul kernels fan out across goroutines. Measured on the training shapes
// this repo actually hits (batch 256, widths 64..256, Xeon 2.1 GHz): goroutine
// spawn+join costs ~5-10 µs per call, and a kernel at 2^18 MACs runs ~100 µs
// single-threaded, so below ~2^16 the fan-out overhead exceeds the win even
// on many cores, while above 2^18 it is noise (<5%). 2^17 is the crossover
// where 4 workers still net ≥1.5× on the 256×64×128 first-layer shape; the
// same constant gates MatMul, MatMulATB and MatMulABT since all three move
// the same flops per output element.
const matmulParallelThreshold = 1 << 17

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
	// Above the L2 footprint threshold the cache-blocked kernel (blocked.go)
	// takes over; it accumulates every output element in the same order as
	// matmulRange, so the dispatch never changes results (bit for bit).
	kernel := matmulRange
	if matmulUseBlocked(a.Rows, a.Cols, b.Cols) {
		kernel = matmulRangeBlocked
	}
	if work >= matmulParallelThreshold && a.Rows > 1 {
		parallelRows(a.Rows, kernel, dst, a, b)
	} else {
		kernel(dst, a, b, 0, a.Rows)
	}
	return dst
}

// matmulRange computes rows [lo,hi) of dst = a×b with an ikj loop order that
// streams rows of b. The k loop is unrolled 4-wide so each pass over di does
// four fused multiply-adds per element: di is loaded and stored once instead
// of four times, which is the dominant cost of the scalar axpy form.
func matmulRange(dst, a, b *Matrix, lo, hi int) {
	n := b.Cols
	kMax := a.Cols
	for i := lo; i < hi; i++ {
		ai := a.Row(i)
		di := dst.Row(i)[:n]
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
}

// MatMulSerial computes a×b into dst (allocating when dst is nil) on the
// calling goroutine only — same kernels and cache-blocking dispatch as
// MatMul, bit-identical output, but no goroutine fan-out and no closure
// allocation. This is the variant for callers that already own their
// parallelism (serving-engine callers, each holding a private arena while
// it scores): fanning out inside the matmul there would oversubscribe the
// machine, and the closure the parallel path allocates would break the
// arena's zero-allocation guarantee.
func MatMulSerial(dst, a, b *Matrix) *Matrix {
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
	if matmulUseBlocked(a.Rows, a.Cols, b.Cols) {
		matmulRangeBlocked(dst, a, b, 0, a.Rows)
	} else {
		matmulRange(dst, a, b, 0, a.Rows)
	}
	return dst
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
// and b stream sequentially, unrolled 4-wide over k to amortise dst traffic.
func matmulATBRange(dst, a, b *Matrix, lo, hi int) {
	n := b.Cols
	m := a.Rows
	k := 0
	for ; k+4 <= m; k += 4 {
		ak0, ak1, ak2, ak3 := a.Row(k), a.Row(k+1), a.Row(k+2), a.Row(k+3)
		bk0, bk1, bk2, bk3 := b.Row(k)[:n], b.Row(k + 1)[:n], b.Row(k + 2)[:n], b.Row(k + 3)[:n]
		for i := lo; i < hi; i++ {
			a0, a1, a2, a3 := ak0[i], ak1[i], ak2[i], ak3[i]
			if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
				continue
			}
			di := dst.Data[i*n : i*n+n]
			for j := range di {
				di[j] += a0*bk0[j] + a1*bk1[j] + a2*bk2[j] + a3*bk3[j]
			}
		}
	}
	for ; k < m; k++ {
		ak := a.Row(k)
		bk := b.Row(k)[:n]
		for i := lo; i < hi; i++ {
			av := ak[i]
			if av == 0 {
				continue
			}
			di := dst.Data[i*n : i*n+n]
			for j := range di {
				di[j] += av * bk[j]
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
// dot product; four independent accumulators break the add-latency chain the
// single-accumulator form serialises on.
func matmulABTRange(dst, a, b *Matrix, lo, hi int) {
	kMax := a.Cols
	for i := lo; i < hi; i++ {
		ai := a.Row(i)
		di := dst.Row(i)
		for j := 0; j < b.Rows; j++ {
			bj := b.Row(j)
			var s0, s1, s2, s3 float64
			k := 0
			for ; k+4 <= kMax; k += 4 {
				s0 += ai[k] * bj[k]
				s1 += ai[k+1] * bj[k+1]
				s2 += ai[k+2] * bj[k+2]
				s3 += ai[k+3] * bj[k+3]
			}
			s := (s0 + s1) + (s2 + s3)
			for ; k < kMax; k++ {
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

// Sum returns the sum of all elements.
func (m *Matrix) Sum() float64 {
	var s float64
	for _, v := range m.Data {
		s += v
	}
	return s
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
