package tensor

import (
	"fmt"
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

// zeroGroup is four zeros: all −0 one time in four, otherwise of mixed sign.
func zeroGroup(rng *rand.Rand) (g [4]float64) {
	allNeg := rng.Intn(4) == 0
	for d := range g {
		g[d] = math.Copysign(0, -1)
		if !allNeg {
			g[d] = math.Copysign(0, float64(rng.Intn(2))-0.5)
		}
	}
	return g
}

// fillF64 fills m with normal variates, replaces about one element in every
// `every` with a palette value (never when every is 0), and zeroes about one
// group of four in eight along each axis (zeroGroup), so the zero-group skip
// runs whether the caller groups a row (MatMul) or a column (MatMulATB) of m.
func fillF64(m *Matrix, rng *rand.Rand, palette []float64, every int) *Matrix {
	m.RandomizeNormal(rng, 1)
	if every > 0 {
		for i := range m.Data {
			if rng.Intn(every) == 0 {
				m.Data[i] = palette[rng.Intn(len(palette))]
			}
		}
	}
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			if c%4 == 0 && c+4 <= m.Cols && rng.Intn(8) == 0 {
				for d, v := range zeroGroup(rng) {
					m.Set(r, c+d, v)
				}
			}
			if r%4 == 0 && r+4 <= m.Rows && rng.Intn(8) == 0 {
				for d, v := range zeroGroup(rng) {
					m.Set(r+d, c, v)
				}
			}
		}
	}
	return m
}

// sowNaNGroups turns one aligned group of four along a row and one along a
// column of m, where m has room, into zeros with one NaN among them: a group
// the zero-skip rule must not skip. Two per matrix leave most of every
// product finite, so the rounding of the rest is still checked. They go only
// into palette-free data, where nothing overflows, so every NaN in a result
// is math.NaN()'s own and its bits cannot depend on operand order.
func sowNaNGroups(m *Matrix, rng *rand.Rand) {
	if m.Cols >= 4 {
		r, c := rng.Intn(m.Rows), 4*rng.Intn(m.Cols/4)
		g := zeroGroup(rng)
		g[rng.Intn(4)] = math.NaN()
		for d, v := range g {
			m.Set(r, c+d, v)
		}
	}
	if m.Rows >= 4 {
		r, c := 4*rng.Intn(m.Rows/4), rng.Intn(m.Cols)
		g := zeroGroup(rng)
		g[rng.Intn(4)] = math.NaN()
		for d, v := range g {
			m.Set(r+d, c, v)
		}
	}
}

func sameBits(t *testing.T, op string, got, want *Matrix) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %dx%d, want %dx%d", op, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, w := range want.Data {
		if g := got.Data[i]; math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s (avx2=%v avx512=%v): element %d (row %d col %d) = %v (%#016x), reference loop %v (%#016x)",
				op, useAVX2, useAVX512, i, i/want.Cols, i%want.Cols, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}

// checkF64Exact runs the four entry points on one (m, k, n) shape: x is m×k,
// w is k×n, dy is m×n — a layer's forward x·w, its dW = xᵀ·dy and its
// dx = dy·wᵀ, the three products nn.Fit makes. With nanGroups the three
// operands also get sowNaNGroups; it is meant for palette-free data only.
func checkF64Exact(t *testing.T, rng *rand.Rand, m, k, n int, palette []float64, every int, nanGroups bool) {
	t.Helper()
	x := fillF64(NewMatrix(m, k), rng, palette, every)
	w := fillF64(NewMatrix(k, n), rng, palette, every)
	dy := fillF64(NewMatrix(m, n), rng, palette, every)
	if nanGroups {
		for _, op := range []*Matrix{x, w, dy} {
			sowNaNGroups(op, rng)
		}
	}

	fwd := matMulRef(x, w)
	sameBits(t, "MatMul", MatMul(nil, x, w), fwd)
	// Into a dirty destination: MatMul must zero it, MatMulABT overwrite it.
	dirty := fillF64(NewMatrix(m, n), rng, palette, every)
	sameBits(t, "MatMul(dst)", MatMul(dirty, x, w), fwd)
	atb := matMulATBRef(x, dy)
	sameBits(t, "MatMulATB", MatMulATB(nil, x, dy), atb)
	// One worker's share of MatMulATB, as parallelRows splits it: dst rows
	// [lo, hi) with lo > 0, so every coefficient column starts mid-row. Rows
	// outside the range must come back untouched.
	lo := 1 + rng.Intn(k)
	hi := lo + rng.Intn(k-lo+1)
	part := fillF64(NewMatrix(k, n), rng, palette, every)
	want := part.Clone()
	copy(want.Data[lo*n:hi*n], atb.Data[lo*n:hi*n])
	for i := range part.Data[lo*n : hi*n] {
		part.Data[lo*n+i] = 0
	}
	matmulATBRange(part, x, dy, lo, hi)
	sameBits(t, fmt.Sprintf("matmulATBRange[%d,%d)", lo, hi), part, want)
	dirty = fillF64(NewMatrix(m, k), rng, palette, every)
	abt := matMulABTRef(dy, w)
	sameBits(t, "MatMulABT", MatMulABT(dirty, dy, w), abt)
	// One worker's share of MatMulABT: dst rows [lo, hi), lo odd about half
	// the time, so the AVX-512 kernel's row pairs start off the even rows
	// and an odd range leaves one row to the single-row kernel.
	lo = rng.Intn(m + 1)
	hi = lo + rng.Intn(m-lo+1)
	part = fillF64(NewMatrix(m, k), rng, palette, every)
	want = part.Clone()
	copy(want.Data[lo*k:hi*k], abt.Data[lo*k:hi*k])
	matmulABTRange(part, dy, w, lo, hi)
	sameBits(t, fmt.Sprintf("matmulABTRange[%d,%d)", lo, hi), part, want)

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
		// Pass counts: k < 4 leaves MatMul no pass and m < 4 leaves MatMulATB
		// none (k = 4..7, m = 4..7: one); many in the rows above.
		{3, 3, 9}, {2, 1, 16}, {6, 4, 7}, {4, 7, 8}, {7, 6, 5},
		// MatMulABT with b.Rows = k not a multiple of 4 around whole blocks
		// (one, two, many), and inner widths 4 and 5 (one dot step, plus a tail).
		{3, 5, 4}, {2, 9, 5}, {4, 10, 8}, {3, 15, 12}, {2, 67, 9},
		// The 512-bit kernels' edges: n around the 32- and 8-column zmm
		// steps (the ymm step and scalar tail after them), odd and even row
		// counts for MatMulABT's row pairs with b.Rows = k % 4 ≠ 0 among
		// them, and one row, which leaves no pair at all.
		{1, 8, 8}, {3, 9, 7}, {5, 12, 9}, {2, 31, 31}, {7, 32, 32}, {4, 33, 33},
		{9, 40, 40}, {6, 66, 66}, {3, 128, 128}, {5, 7, 256}, {1, 66, 3}, {10, 13, 4},
	}
	for _, s := range shapes {
		checkF64Exact(t, rng, s[0], s[1], s[2], nil, 0, false)
		checkF64Exact(t, rng, s[0], s[1], s[2], nil, 0, true)
		checkF64Exact(t, rng, s[0], s[1], s[2], f64Finite, 5, false)
		checkF64Exact(t, rng, s[0], s[1], s[2], f64WithInf, 9, false)
	}
}

// FuzzF64KernelExact lets the fuzzer pick the shape, the data seed and how
// densely edge values are sown: edge&127 is fillF64's `every`, and the high
// bit adds the non-finite case — infinities in the palette, or, with no
// palette (edge = 128), NaN groups.
func FuzzF64KernelExact(f *testing.F) {
	f.Add(int64(1), 4, 66, 128, uint8(0))
	f.Add(int64(2), 1, 1, 1, uint8(1))
	f.Add(int64(3), 7, 9, 31, uint8(3))
	f.Add(int64(4), 5, 3, 17, uint8(130))
	f.Add(int64(5), 3, 2, 8, uint8(0))        // no MatMul pass, −0 groups
	f.Add(int64(6), 5, 4, 9, uint8(0))        // one pass each way
	f.Add(int64(7), 40, 131, 21, uint8(0))    // many passes, ABT b.Rows % 4 = 3
	f.Add(int64(8), 13, 10, 6, uint8(5))      // ATB sub-range inside 10 rows
	f.Add(int64(9), 5, 4, 9, uint8(128))      // NaN groups, one pass each way
	f.Add(int64(10), 48, 66, 128, uint8(128)) // NaN groups, many passes
	f.Add(int64(11), 7, 33, 40, uint8(0))     // zmm 32+8 columns, odd ABT rows
	f.Add(int64(12), 6, 66, 256, uint8(128))  // NaN groups, wide zmm rows
	f.Fuzz(func(t *testing.T, seed int64, m, k, n int, edge uint8) {
		if m < 1 || m > 48 || k < 1 || k > 260 || n < 1 || n > 260 {
			t.Skip()
		}
		palette := f64Finite
		if edge >= 128 {
			palette = f64WithInf
		}
		checkF64Exact(t, rand.New(rand.NewSource(seed)), m, k, n, palette, int(edge&127), edge == 128)
	})
}

// axpy4F64Ref restates axpy4F64's contract as plain loops: pass p takes its
// four coefficients at a[p·aStride + l·aLane], is skipped when all four
// compare equal to zero, and otherwise accumulates the four rows from
// b[p·bStride] into the row at dst[p·dstStride].
func axpy4F64Ref(dst []float64, dstStride int, b []float64, bStride int, a []float64, aLane, aStride, passes, n int) {
	for p := 0; p < passes; p++ {
		var c [4]float64
		zero := true
		for l := range c {
			c[l] = a[p*aStride+l*aLane]
			zero = zero && c[l] == 0
		}
		if zero {
			continue
		}
		for j := 0; j < n; j++ {
			bj := func(l int) float64 { return b[p*bStride+l*n+j] }
			dst[p*dstStride+j] += c[0]*bj(0) + c[1]*bj(1) + c[2]*bj(2) + c[3]*bj(3)
		}
	}
}

// TestAxpy4F64Passes drives the kernel itself at 0, 1 and many passes in
// the two stride patterns its callers use — a MatMul row (dst fixed, b
// advancing four rows a pass, coefficients consecutive) and a MatMulATB
// k-block (dst advancing a row a pass, b fixed, coefficients a column of a
// row-major block) — and in one with every stride odd, over column counts
// that reach each of the AVX2 16/4/1-wide loops and the AVX-512 32/8-wide
// ones before them. dst starts dirty with −0s among
// its values, so a zero group the kernel wrongly added would turn them into
// +0; coefficient groups are all −0, mixed ±0, or hold one NaN, and elements
// no pass touches must stay as they were.
func TestAxpy4F64Passes(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	negZero := math.Copysign(0, -1)
	for _, passes := range []int{0, 1, 2, 7, 40} {
		for _, n := range []int{1, 3, 4, 5, 7, 8, 9, 16, 17, 31, 32, 33, 40, 66, 128, 256} {
			for _, pat := range []struct {
				name                               string
				dstStride, bStride, aLane, aStride int
			}{
				{"row", 0, 4 * n, 1, 4},
				{"atb", n, 0, 9, 1},
				{"odd", n + 3, 4*n + 5, 3, 13},
			} {
				dst := make([]float64, passes*pat.dstStride+n+7)
				b := make([]float64, passes*pat.bStride+4*n+5)
				a := make([]float64, passes*pat.aStride+3*pat.aLane+3)
				for i := range dst {
					if dst[i] = rng.NormFloat64(); rng.Intn(3) == 0 {
						dst[i] = negZero
					}
				}
				for i := range b {
					b[i] = rng.NormFloat64()
				}
				for i := range a {
					a[i] = rng.NormFloat64()
				}
				for p := 0; p < passes; p++ {
					at := func(l int) *float64 { return &a[p*pat.aStride+l*pat.aLane] }
					switch rng.Intn(4) {
					case 0:
						for l := 0; l < 4; l++ {
							*at(l) = negZero
						}
					case 1:
						for l := 0; l < 4; l++ {
							*at(l) = math.Copysign(0, float64(rng.Intn(2))-0.5)
						}
					case 2:
						for l := 0; l < 4; l++ {
							*at(l) = 0
						}
						*at(rng.Intn(4)) = math.NaN()
					}
				}
				want := append([]float64(nil), dst...)
				axpy4F64Ref(want, pat.dstStride, b, pat.bStride, a, pat.aLane, pat.aStride, passes, n)
				axpy4F64(dst, pat.dstStride, b, pat.bStride, a, pat.aLane, pat.aStride, passes, n)
				op := fmt.Sprintf("axpy4F64 %s passes=%d n=%d", pat.name, passes, n)
				sameBits(t, op, FromSlice(1, len(dst), dst), FromSlice(1, len(want), want))
			}
		}
	}
}
