package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// Exact-parity tests for the float64 matmuls (ISSUE 19 / DESIGN.md §14).
// Unlike the float32/int8 kernels in simd_test.go, whose AVX2 forms fuse and
// regroup and are held to a tolerance, the float64 AVX2 kernels promise the
// generic loops' bits. The references below restate those loops — the ones
// every result before the kernels existed was computed with — in this file's
// own text, and the exported entry points, under whichever kernel cpukit
// selected, must reproduce them under math.Float64bits. The CI kernel-parity
// job runs the package once per OCCU_KERNEL setting, so the same constants
// hold both implementations.

func matMulRef(a, b *Matrix) *Matrix {
	m, kMax, n := a.Rows, a.Cols, b.Cols
	dst := NewMatrix(m, n)
	for i := 0; i < m; i++ {
		k := 0
		for ; k+4 <= kMax; k += 4 {
			a0, a1, a2, a3 := a.Data[i*kMax+k], a.Data[i*kMax+k+1], a.Data[i*kMax+k+2], a.Data[i*kMax+k+3]
			if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				dst.Data[i*n+j] += a0*b.Data[k*n+j] + a1*b.Data[(k+1)*n+j] + a2*b.Data[(k+2)*n+j] + a3*b.Data[(k+3)*n+j]
			}
		}
		for ; k < kMax; k++ {
			av := a.Data[i*kMax+k]
			if av == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				dst.Data[i*n+j] += av * b.Data[k*n+j]
			}
		}
	}
	return dst
}

func matMulATBRef(a, b *Matrix) *Matrix {
	m, r, n := a.Rows, a.Cols, b.Cols
	dst := NewMatrix(r, n)
	k := 0
	for ; k+4 <= m; k += 4 {
		for i := 0; i < r; i++ {
			a0, a1, a2, a3 := a.Data[k*r+i], a.Data[(k+1)*r+i], a.Data[(k+2)*r+i], a.Data[(k+3)*r+i]
			if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				dst.Data[i*n+j] += a0*b.Data[k*n+j] + a1*b.Data[(k+1)*n+j] + a2*b.Data[(k+2)*n+j] + a3*b.Data[(k+3)*n+j]
			}
		}
	}
	for ; k < m; k++ {
		for i := 0; i < r; i++ {
			av := a.Data[k*r+i]
			if av == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				dst.Data[i*n+j] += av * b.Data[k*n+j]
			}
		}
	}
	return dst
}

func matMulABTRef(a, b *Matrix) *Matrix {
	m, kMax, n := a.Rows, a.Cols, b.Rows
	dst := NewMatrix(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s0, s1, s2, s3 float64
			k := 0
			for ; k+4 <= kMax; k += 4 {
				s0 += a.Data[i*kMax+k] * b.Data[j*kMax+k]
				s1 += a.Data[i*kMax+k+1] * b.Data[j*kMax+k+1]
				s2 += a.Data[i*kMax+k+2] * b.Data[j*kMax+k+2]
				s3 += a.Data[i*kMax+k+3] * b.Data[j*kMax+k+3]
			}
			s := (s0 + s1) + (s2 + s3)
			for ; k < kMax; k++ {
				s += a.Data[i*kMax+k] * b.Data[j*kMax+k]
			}
			dst.Data[i*n+j] = s
		}
	}
	return dst
}

// Edge-value palettes. The finite one is where rounding order shows: signed
// zeros (a skipped zero group keeps a −0 that an added +0 would erase),
// subnormals (no flush-to-zero in either kernel) and magnitudes that cancel
// or overflow. With infinities in play products and sums turn into NaN, and
// every NaN either kernel can produce from non-NaN input is the one default
// quiet NaN, so the bit comparison still holds.
var (
	f64Finite = []float64{
		0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072009e-308, -1.5e-310,
		1e-200, -1e200, 1.7e308, -1.7e308, 1, -1, 0.1, 1 << 53, 1 + 1.0/(1<<52),
	}
	f64WithInf = append(append([]float64(nil), f64Finite...), math.Inf(1), math.Inf(-1))
)

// fillF64 fills m with normal variates, replaces about one element in every
// `every` with a palette value (never when every is 0), and zeroes — with
// either sign — about one group of four in eight along each axis, so the
// zero-group skip runs whether the caller groups a row (MatMul) or a column
// (MatMulATB) of m.
func fillF64(m *Matrix, rng *rand.Rand, palette []float64, every int) *Matrix {
	m.RandomizeNormal(rng, 1)
	if every > 0 {
		for i := range m.Data {
			if rng.Intn(every) == 0 {
				m.Data[i] = palette[rng.Intn(len(palette))]
			}
		}
	}
	zero := func() float64 { return math.Copysign(0, float64(rng.Intn(2))-0.5) }
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			if c%4 == 0 && c+4 <= m.Cols && rng.Intn(8) == 0 {
				for d := 0; d < 4; d++ {
					m.Set(r, c+d, zero())
				}
			}
			if r%4 == 0 && r+4 <= m.Rows && rng.Intn(8) == 0 {
				for d := 0; d < 4; d++ {
					m.Set(r+d, c, zero())
				}
			}
		}
	}
	return m
}

func sameBits(t *testing.T, op string, got, want *Matrix) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %dx%d, want %dx%d", op, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, w := range want.Data {
		if g := got.Data[i]; math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s (avx2=%v): element %d (row %d col %d) = %v (%#016x), reference loop %v (%#016x)",
				op, useAVX2, i, i/want.Cols, i%want.Cols, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}

// checkF64Exact runs the four entry points on one (m, k, n) shape: x is m×k,
// w is k×n, dy is m×n — a layer's forward x·w, its dW = xᵀ·dy and its
// dx = dy·wᵀ, the three products nn.Fit makes.
func checkF64Exact(t *testing.T, rng *rand.Rand, m, k, n int, palette []float64, every int) {
	t.Helper()
	x := fillF64(NewMatrix(m, k), rng, palette, every)
	w := fillF64(NewMatrix(k, n), rng, palette, every)
	dy := fillF64(NewMatrix(m, n), rng, palette, every)

	fwd := matMulRef(x, w)
	sameBits(t, "MatMul", MatMul(nil, x, w), fwd)
	// Into a dirty destination: MatMul must zero it, MatMulABT overwrite it.
	dirty := fillF64(NewMatrix(m, n), rng, palette, every)
	sameBits(t, "MatMul(dst)", MatMul(dirty, x, w), fwd)
	sameBits(t, "MatMulATB", MatMulATB(nil, x, dy), matMulATBRef(x, dy))
	dirty = fillF64(NewMatrix(m, k), rng, palette, every)
	sameBits(t, "MatMulABT", MatMulABT(dirty, dy, w), matMulABTRef(dy, w))

	row := NewMatrix(m, n)
	for i := 0; i < m; i++ {
		RowMatMulInto(row.Row(i), x.Row(i), w, nil)
	}
	sameBits(t, "RowMatMulInto", row, fwd)
}

func TestF64KernelExact(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	shapes := [][3]int{
		// The paper MLP's layers at batch 256, and the last batch of an epoch.
		{256, 66, 128}, {256, 128, 256}, {256, 256, 128}, {256, 128, 1}, {96, 66, 128},
		// Lane remainders of the 16/4/1-wide column loop, k%4 and k<4 tails,
		// row counts that leave MatMulABT a partial group of four, n = 1.
		{1, 1, 1}, {2, 3, 2}, {3, 2, 5}, {5, 4, 4}, {4, 5, 3}, {7, 7, 7}, {6, 9, 15},
		{3, 8, 16}, {9, 12, 17}, {5, 66, 19}, {11, 13, 20}, {2, 31, 33}, {13, 6, 1}, {1, 130, 67},
	}
	for _, s := range shapes {
		checkF64Exact(t, rng, s[0], s[1], s[2], nil, 0)
		checkF64Exact(t, rng, s[0], s[1], s[2], f64Finite, 5)
		checkF64Exact(t, rng, s[0], s[1], s[2], f64WithInf, 9)
	}
}

// FuzzF64KernelExact lets the fuzzer pick the shape, the data seed and how
// densely edge values are sown.
func FuzzF64KernelExact(f *testing.F) {
	f.Add(int64(1), 4, 66, 128, uint8(0))
	f.Add(int64(2), 1, 1, 1, uint8(1))
	f.Add(int64(3), 7, 9, 31, uint8(3))
	f.Add(int64(4), 5, 3, 17, uint8(130))
	f.Fuzz(func(t *testing.T, seed int64, m, k, n int, edge uint8) {
		if m < 1 || m > 48 || k < 1 || k > 160 || n < 1 || n > 160 {
			t.Skip()
		}
		palette := f64Finite
		if edge >= 128 {
			palette = f64WithInf
		}
		checkF64Exact(t, rand.New(rand.NewSource(seed)), m, k, n, palette, int(edge&127))
	})
}
