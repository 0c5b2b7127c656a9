package tensor

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cpukit"
)

// Kernel parity tests (ISSUE 8 / DESIGN.md §14). Each test drives the
// exported entry point — which runs whichever kernel cpukit selected for
// this process — against an independent scalar reference computed in the
// test itself. Float comparisons are tolerance-based when the AVX2 kernel
// is live (FMA + vector regrouping legitimately moves low bits) and exact
// when dispatch selected generic; the integer kernel must be exact under
// either. The CI kernel-parity job runs this package twice, once per
// OCCU_KERNEL setting, so both branches of every `if useAVX2` execute.

// TestKernelTierDispatch: the tiers nest, so every non-generic tier routes
// the f32, int8, phasor and compaction kernels through AVX2 (an avx512
// process that fell back to generic there would pass every parity test and
// serve at a third of the speed), and only the avx512 tier takes the
// 512-bit f64 kernels. The CI kernel-parity job runs it under each tier.
func TestKernelTierDispatch(t *testing.T) {
	k := cpukit.Active()
	if useAVX2 != (k != cpukit.KernelGeneric) || useAVX512 != (k == cpukit.KernelAVX512) {
		t.Fatalf("kernel %s: useAVX2 = %v, useAVX512 = %v", k, useAVX2, useAVX512)
	}
}

// simdShapes stresses every lane-remainder case of the 32/8/4/1-wide loop
// structure: n%8 ∈ {0..7}, n<8, n<32, and the real layer widths.
var simdShapes = []int{1, 2, 3, 5, 7, 8, 9, 15, 16, 31, 32, 33, 63, 66, 100, 128, 256}

func randSparseRow(rng *rand.Rand, in, nz int) (idx []int32, val []float32) {
	idx = make([]int32, nz)
	val = make([]float32, nz)
	perm := rng.Perm(in)
	for k := 0; k < nz; k++ {
		idx[k] = int32(perm[k])
		val[k] = float32(rng.NormFloat64())
	}
	return idx, val
}

// sparseAxpyF32Ref is the pre-SIMD loop, restated independently so that the
// generic kernel's bit-identity claim is checked against this test's own
// text rather than against the code under test.
func sparseAxpyF32Ref(dst []float32, b *MatrixF32, idx []int32, val []float32) {
	n := b.Cols
	nz := len(idx)
	k := 0
	for ; k+8 <= nz; k += 8 {
		for j := range dst {
			dst[j] += val[k]*b.Data[int(idx[k])*n+j] +
				val[k+1]*b.Data[int(idx[k+1])*n+j] +
				val[k+2]*b.Data[int(idx[k+2])*n+j] +
				val[k+3]*b.Data[int(idx[k+3])*n+j] +
				val[k+4]*b.Data[int(idx[k+4])*n+j] +
				val[k+5]*b.Data[int(idx[k+5])*n+j] +
				val[k+6]*b.Data[int(idx[k+6])*n+j] +
				val[k+7]*b.Data[int(idx[k+7])*n+j]
		}
	}
	for ; k+4 <= nz; k += 4 {
		for j := range dst {
			dst[j] += val[k]*b.Data[int(idx[k])*n+j] +
				val[k+1]*b.Data[int(idx[k+1])*n+j] +
				val[k+2]*b.Data[int(idx[k+2])*n+j] +
				val[k+3]*b.Data[int(idx[k+3])*n+j]
		}
	}
	for ; k < nz; k++ {
		for j := range dst {
			dst[j] += val[k] * b.Data[int(idx[k])*n+j]
		}
	}
}

// closeF32 reports |got-want| within a relative tolerance scaled by the
// number of accumulated terms (each term can contribute ~1 ulp of reorder
// error under a different summation grouping).
func closeF32(got float32, want, magnitude float64, terms int) bool {
	tol := 1e-6 * float64(terms+1) * (1 + magnitude)
	return math.Abs(float64(got)-want) <= tol
}

func TestSparseRowMatMulF32Parity(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, n := range simdShapes {
		for _, in := range []int{1, 2, 4, 5, 8, 9, 17, 66, 128} {
			b := NewMatrixF32(in, n)
			for i := range b.Data {
				b.Data[i] = float32(rng.NormFloat64())
			}
			bias := make([]float32, n)
			for i := range bias {
				bias[i] = float32(rng.NormFloat64())
			}
			for _, nz := range []int{0, 1, in / 2, in} {
				idx, val := randSparseRow(rng, in, nz)
				got := make([]float32, n)
				SparseRowMatMulF32Into(got, bias, b, idx, val)

				ref := make([]float32, n)
				copy(ref, bias)
				sparseAxpyF32Ref(ref, b, idx, val)
				for j := 0; j < n; j++ {
					want := float64(bias[j])
					for k := 0; k < nz; k++ {
						want += float64(val[k]) * float64(b.Data[int(idx[k])*b.Cols+j])
					}
					if !closeF32(got[j], want, math.Abs(want), nz) {
						t.Fatalf("n=%d in=%d nz=%d j=%d: got %g, f64 ref %g", n, in, nz, j, got[j], want)
					}
					if !useAVX2 && got[j] != ref[j] {
						t.Fatalf("generic kernel not bit-identical: n=%d in=%d nz=%d j=%d got %b want %b",
							n, in, nz, j, got[j], ref[j])
					}
				}
			}
		}
	}
}

func TestMatMulF32Parity(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, tc := range [][3]int{
		{1, 1, 1}, {2, 3, 5}, {4, 7, 9}, {1, 8, 33}, {3, 66, 128},
		{5, 128, 256}, {2, 31, 7}, {8, 9, 100},
	} {
		m, k, n := tc[0], tc[1], tc[2]
		a := NewMatrixF32(m, k)
		b := NewMatrixF32(k, n)
		for i := range a.Data {
			a.Data[i] = float32(rng.NormFloat64())
		}
		for i := range b.Data {
			b.Data[i] = float32(rng.NormFloat64())
		}
		dst := NewMatrixF32(m, n)
		MatMulF32(dst, a, b)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				want := 0.0
				for kk := 0; kk < k; kk++ {
					want += float64(a.Data[i*a.Cols+kk]) * float64(b.Data[kk*b.Cols+j])
				}
				if !closeF32(dst.Data[i*dst.Cols+j], want, math.Abs(want), k) {
					t.Fatalf("%dx%dx%d (%d,%d): got %g, f64 ref %g", m, k, n, i, j, dst.Data[i*dst.Cols+j], want)
				}
			}
		}
	}
}

func TestSparseRowMatMulI8Parity(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, n := range simdShapes {
		for _, in := range []int{1, 3, 4, 5, 9, 66, 128} {
			w := make([]int8, in*n)
			for i := range w {
				w[i] = int8(rng.Intn(255) - 127)
			}
			bias := make([]float32, n)
			for i := range bias {
				bias[i] = float32(rng.NormFloat64())
			}
			scale := float32(0.01 + rng.Float64())
			for _, nz := range []int{0, 1, in / 2, in} {
				idx, val := randSparseRow(rng, in, nz)
				got := make([]float32, n)
				SparseRowMatMulI8Into(got, bias, w, n, scale, idx, val)

				gen := make([]float32, n)
				sparseRowMatMulI8Generic(gen, bias, w, n, scale, idx, val)
				for j := 0; j < n; j++ {
					acc := 0.0
					for k := 0; k < nz; k++ {
						acc += float64(val[k]) * float64(w[int(idx[k])*n+j])
					}
					want := acc*float64(scale) + float64(bias[j])
					if !closeF32(got[j], want, math.Abs(want)+math.Abs(acc*float64(scale)), nz) {
						t.Fatalf("n=%d in=%d nz=%d j=%d: got %g, f64 ref %g", n, in, nz, j, got[j], want)
					}
					if !useAVX2 && got[j] != gen[j] {
						t.Fatalf("generic int8 kernel not bit-identical at n=%d in=%d nz=%d j=%d", n, in, nz, j)
					}
				}
			}
		}
	}
}

// TestQuantMaddU7I8Exact: the integer kernel is exact under BOTH kernels —
// u7 activations guarantee the VPMADDUBSW intermediate cannot saturate
// (127·127·2 = 32258 < 32767), so the int32 sums match bit for bit.
func TestQuantMaddU7I8Exact(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, n := range simdShapes {
		for _, in := range []int{4, 8, 12, 64, 68, 128, 256} {
			w := make([]int8, in*n)
			for i := range w {
				w[i] = int8(rng.Intn(255) - 127)
			}
			packed := PackI8KQuad(w, in, n)
			act := make([]uint8, in)
			for i := range act {
				act[i] = uint8(rng.Intn(128))
			}
			got := make([]int32, n)
			QuantMaddU7I8Into(got, n, packed, act)
			for j := 0; j < n; j++ {
				var want int32
				for k := 0; k < in; k++ {
					want += int32(act[k]) * int32(w[k*n+j])
				}
				if got[j] != want {
					t.Fatalf("n=%d in=%d j=%d: got %d, want %d", n, in, j, got[j], want)
				}
			}
		}
	}
}

// TestQuantMaddU7I8WorstCase drives the saturation-critical extremes: all
// activations 127, adjacent weights ±127 — the pair sums VPMADDUBSW must
// hold without clipping.
func TestQuantMaddU7I8WorstCase(t *testing.T) {
	const in, n = 128, 33
	w := make([]int8, in*n)
	for i := range w {
		if i%2 == 0 {
			w[i] = 127
		} else {
			w[i] = -127
		}
	}
	act := make([]uint8, in)
	for i := range act {
		act[i] = 127
	}
	packed := PackI8KQuad(w, in, n)
	got := make([]int32, n)
	QuantMaddU7I8Into(got, n, packed, act)
	for j := 0; j < n; j++ {
		var want int32
		for k := 0; k < in; k++ {
			want += 127 * int32(w[k*n+j])
		}
		if got[j] != want {
			t.Fatalf("worst case j=%d: got %d, want %d", j, got[j], want)
		}
	}
}

func TestPackI8KQuad(t *testing.T) {
	// in=6 exercises the zero-padded final group (6 rows → 2 groups of 4).
	const in, n = 6, 3
	w := make([]int8, in*n)
	for i := range w {
		w[i] = int8(i + 1)
	}
	packed := PackI8KQuad(w, in, n)
	if len(packed) != 2*n*4 {
		t.Fatalf("packed length %d, want %d", len(packed), 2*n*4)
	}
	for k := 0; k < in; k++ {
		g, r := k/4, k%4
		for j := 0; j < n; j++ {
			if packed[(g*n+j)*4+r] != w[k*n+j] {
				t.Fatalf("packed[(%d*%d+%d)*4+%d] = %d, want %d", g, n, j, r, packed[(g*n+j)*4+r], w[k*n+j])
			}
		}
	}
	// Padding rows of the last group must be zero.
	for j := 0; j < n; j++ {
		for r := in % 4; r < 4; r++ {
			if packed[((in/4)*n+j)*4+r] != 0 {
				t.Fatalf("padding byte nonzero at j=%d r=%d", j, r)
			}
		}
	}
}

func TestQuantizeU7F32(t *testing.T) {
	src := []float32{0, 0.5, 1, 2, 3.75, 4}
	dst := make([]uint8, len(src))
	scale := QuantizeU7F32Into(dst, src)
	if dst[len(dst)-1] != 127 {
		t.Fatalf("max element quantised to %d, want 127", dst[len(dst)-1])
	}
	for i, v := range src {
		back := float32(dst[i]) * scale
		if math.Abs(float64(back-v)) > float64(scale)/2+1e-7 {
			t.Fatalf("round-trip src[%d]=%g → %d → %g exceeds half-step %g", i, v, dst[i], back, scale/2)
		}
	}

	// All-zero rows: every byte 0, scale exactly 1.
	zero := make([]float32, 9)
	dz := make([]uint8, 9)
	if s := QuantizeU7F32Into(dz, zero); s != 1 {
		t.Fatalf("all-zero scale = %g, want 1", s)
	}
	for i, b := range dz {
		if b != 0 {
			t.Fatalf("all-zero row quantised dz[%d]=%d", i, b)
		}
	}

	// No byte may exceed 127 — the saturation-freedom invariant.
	rng := rand.New(rand.NewSource(59))
	big := make([]float32, 257)
	db := make([]uint8, len(big))
	for trial := 0; trial < 50; trial++ {
		for i := range big {
			big[i] = float32(math.Abs(rng.NormFloat64())) * float32(rng.Intn(1000)+1)
		}
		QuantizeU7F32Into(db, big)
		for i, b := range db {
			if b > 127 {
				t.Fatalf("trial %d: dst[%d] = %d > 127", trial, i, b)
			}
		}
	}
}

// FuzzKernelParity fuzzes the sparse f32 kernel (the inference hot path)
// against a float64 reference with a term-scaled tolerance, and — when the
// generic kernel is active — against the restated scalar loop bit-for-bit.
func FuzzKernelParity(f *testing.F) {
	f.Add(int64(1), 8, 66, 33)
	f.Add(int64(2), 1, 1, 1)
	f.Add(int64(3), 7, 9, 31)
	f.Add(int64(4), 16, 128, 256)
	f.Fuzz(func(t *testing.T, seed int64, nz, in, n int) {
		if in < 1 || in > 512 || n < 1 || n > 512 {
			t.Skip()
		}
		if nz < 0 {
			nz = 0
		}
		if nz > in {
			nz = in
		}
		rng := rand.New(rand.NewSource(seed))
		b := NewMatrixF32(in, n)
		for i := range b.Data {
			b.Data[i] = float32(rng.NormFloat64())
		}
		bias := make([]float32, n)
		for i := range bias {
			bias[i] = float32(rng.NormFloat64())
		}
		idx, val := randSparseRow(rng, in, nz)
		got := make([]float32, n)
		SparseRowMatMulF32Into(got, bias, b, idx, val)
		ref := make([]float32, n)
		copy(ref, bias)
		sparseAxpyF32Ref(ref, b, idx, val)
		for j := 0; j < n; j++ {
			want := float64(bias[j])
			for k := 0; k < nz; k++ {
				want += float64(val[k]) * float64(b.Data[int(idx[k])*b.Cols+j])
			}
			if !closeF32(got[j], want, math.Abs(want), nz) {
				t.Fatalf("seed=%d nz=%d in=%d n=%d j=%d: got %g, f64 ref %g", seed, nz, in, n, j, got[j], want)
			}
			if !useAVX2 && got[j] != ref[j] {
				t.Fatalf("generic not bit-identical: seed=%d nz=%d in=%d n=%d j=%d", seed, nz, in, n, j)
			}
		}
	})
}
