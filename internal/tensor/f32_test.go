package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randF32 builds an r×c float32 matrix (via the float64 generator so the
// values match what FromMatrixF32 of a float64 matrix would produce).
func randF32(r, c int, rng *rand.Rand) (*Matrix, *MatrixF32) {
	m := NewMatrix(r, c).RandomizeNormal(rng, 1)
	return m, FromMatrixF32(m)
}

func TestFromMatrixF32Rounds(t *testing.T) {
	m := FromSlice(1, 3, []float64{0.1, -2.5, 1e-40})
	f := FromMatrixF32(m)
	for i, v := range m.Data {
		if f.Data[i] != float32(v) {
			t.Fatalf("element %d: %v != float32(%v)", i, f.Data[i], v)
		}
	}
}

// TestMatMulF32MatchesF64 checks the float32 kernel against the float64
// reference within float32 rounding.
func TestMatMulF32MatchesF64(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, dims := range [][3]int{{1, 1, 1}, {3, 5, 7}, {17, 66, 128}, {8, 13, 1}} {
		m, k, n := dims[0], dims[1], dims[2]
		a64, a32 := randF32(m, k, rng)
		b64, b32 := randF32(k, n, rng)
		want := MatMul(NewMatrix(m, n), a64, b64)
		got := MatMulF32(NewMatrixF32(m, n), a32, b32)
		for i := range want.Data {
			w, g := want.Data[i], float64(got.Data[i])
			// |error| scales with the dot-product length.
			tol := 1e-5 * (1 + math.Abs(w)) * float64(k)
			if math.Abs(w-g) > tol {
				t.Fatalf("%dx%dx%d: element %d: f32 %v vs f64 %v", m, k, n, i, g, w)
			}
		}
	}
}

// TestSparseKernelsMatchDense: compaction + sparse accumulate must equal
// the dense f32 kernel bit for bit — same values, same accumulation order
// over the surviving terms (zero terms contribute exactly zero in the dense
// kernel... they do not: dense adds a*b[j] with a=0, which is a no-op for
// finite b, so the orders agree on the nonzero subsequence only when the
// sparse kernel groups identically. We therefore compare against a scalar
// reference with the same term order instead of the 4-wide dense kernel.)
func TestSparseKernelsMatchDense(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, kc := range [][2]int{{66, 128}, {128, 256}, {7, 3}, {1, 1}} {
		k, n := kc[0], kc[1]
		_, w := randF32(k, n, rng)
		row := make([]float32, k)
		for i := range row {
			if rng.Float64() < 0.5 { // realistic ReLU sparsity
				row[i] = float32(rng.NormFloat64())
			}
		}
		bias := make([]float32, n)
		for i := range bias {
			bias[i] = float32(rng.NormFloat64())
		}
		idx := make([]int32, k)
		val := make([]float32, k)
		nz := CompactNonzeroF32(idx, val, row)
		for c := 0; c < nz; c++ {
			if row[idx[c]] != val[c] || val[c] == 0 {
				t.Fatal("compaction gathered a wrong or zero entry")
			}
		}
		dst := make([]float32, n)
		SparseRowMatMulF32Into(dst, bias, w, idx[:nz], val[:nz])

		// Scalar reference with the same grouping as the kernel's j-loops:
		// float32 accumulation in 8/4/1-wide k-groups.
		ref := make([]float32, n)
		copy(ref, bias)
		c := 0
		for ; c+8 <= nz; c += 8 {
			for j := 0; j < n; j++ {
				var s float32
				for q := 0; q < 8; q++ {
					s += val[c+q] * w.Data[int(idx[c+q])*w.Cols+j]
				}
				ref[j] += s
			}
		}
		for ; c+4 <= nz; c += 4 {
			for j := 0; j < n; j++ {
				var s float32
				for q := 0; q < 4; q++ {
					s += val[c+q] * w.Data[int(idx[c+q])*w.Cols+j]
				}
				ref[j] += s
			}
		}
		for ; c < nz; c++ {
			for j := 0; j < n; j++ {
				ref[j] += val[c] * w.Data[int(idx[c])*w.Cols+j]
			}
		}
		for j := range dst {
			// Same terms, same group structure — but the in-group summation
			// order differs (kernel: a0*b0+a1*b1+...; reference: running
			// sum), so allow one-ulp-scale slack rather than exact bits.
			if math.Abs(float64(dst[j]-ref[j])) > 1e-4*(1+math.Abs(float64(ref[j]))) {
				t.Fatalf("k=%d n=%d: sparse kernel j=%d: %v vs reference %v", k, n, j, dst[j], ref[j])
			}
		}
	}
}

// TestSparseRowMatMulDeterministic: the sparse kernel must be a pure
// function of (idx, val, weights) — two runs agree bit for bit.
func TestSparseRowMatMulDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	_, w := randF32(128, 256, rng)
	row := make([]float32, 128)
	for i := range row {
		if rng.Float64() < 0.5 {
			row[i] = float32(rng.NormFloat64())
		}
	}
	bias := make([]float32, 256)
	idx := make([]int32, 128)
	val := make([]float32, 128)
	nz := CompactNonzeroF32(idx, val, row)
	a := make([]float32, 256)
	b := make([]float32, 256)
	SparseRowMatMulF32Into(a, bias, w, idx[:nz], val[:nz])
	SparseRowMatMulF32Into(b, bias, w, idx[:nz], val[:nz])
	for j := range a {
		if a[j] != b[j] {
			t.Fatalf("non-deterministic at %d", j)
		}
	}
}

// The compaction entry points, each beside the plain branching loop it must
// reproduce. The references are restated here on purpose: they are what the
// branch-free scalar loop and the AVX2 kernel are both checked against, under
// either OCCU_KERNEL setting.
var compactions = []struct {
	name string
	fn   func(idx []int32, val []float32, src []float32) int
	keep func(v float32) bool
}{
	{"ReLUCompactF32", ReLUCompactF32, func(v float32) bool { return v > 0 }},
	{"CompactNonzeroF32", CompactNonzeroF32, func(v float32) bool { return v != 0 }},
}

// compactEdges is every class of bit pattern on either side of both
// predicates: signed zeros, the smallest and largest subnormals and normals,
// infinities, quiet and signalling NaNs of either sign.
func compactEdges() []float32 {
	var edges []float32
	for _, bits := range []uint32{
		0x00000000, 0x00000001, 0x007FFFFF, 0x00800000, 0x3F800000, 0x7F7FFFFF,
		0x7F800000, 0x7F800001, 0x7FC00000, 0x7FFFFFFF,
	} {
		edges = append(edges, math.Float32frombits(bits), math.Float32frombits(bits|0x80000000))
	}
	return edges
}

// checkCompactF32 runs every compaction over src into idx/val that are
// exactly len(src) long and dirty on entry, and compares the count and the
// (idx, val) prefix — values under Float32bits, so NaN payloads and the sign
// of zero count — with the reference loop. Entries past the count are
// scratch and not looked at.
func checkCompactF32(t testing.TB, src []float32) {
	t.Helper()
	for _, c := range compactions {
		idx, val := make([]int32, len(src)), make([]float32, len(src))
		for i := range idx {
			idx[i], val[i] = -7, math.Float32frombits(0xDEADBEEF)
		}
		nz := c.fn(idx, val, src)
		want := 0
		for k, v := range src {
			if !c.keep(v) {
				continue
			}
			if want < nz && (idx[want] != int32(k) || math.Float32bits(val[want]) != math.Float32bits(v)) {
				t.Fatalf("%s (avx2=%v) len %d: entry %d = (%d, %#08x), want (%d, %#08x)", c.name, useAVX2,
					len(src), want, idx[want], math.Float32bits(val[want]), k, math.Float32bits(v))
			}
			want++
		}
		if nz != want {
			t.Fatalf("%s (avx2=%v) len %d: count %d, want %d", c.name, useAVX2, len(src), nz, want)
		}
	}
}

func TestReLUCompactF32(t *testing.T) {
	src := []float32{1, -2, 0, 3.5, -0.25, 0.001}
	idx := make([]int32, len(src))
	val := make([]float32, len(src))
	nz := ReLUCompactF32(idx, val, src)
	if nz != 3 {
		t.Fatalf("nz = %d, want 3", nz)
	}
	wantIdx := []int32{0, 3, 5}
	wantVal := []float32{1, 3.5, 0.001}
	for i := 0; i < nz; i++ {
		if idx[i] != wantIdx[i] || val[i] != wantVal[i] {
			t.Fatalf("entry %d: (%d,%v) want (%d,%v)", i, idx[i], val[i], wantIdx[i], wantVal[i])
		}
	}
}

func TestCompactNonzeroF32(t *testing.T) {
	src := []float32{1, -2, 0, 3.5, float32(math.Copysign(0, -1)), float32(math.NaN())}
	idx := make([]int32, len(src))
	val := make([]float32, len(src))
	nz := CompactNonzeroF32(idx, val, src)
	wantIdx := []int32{0, 1, 3, 5}
	if nz != len(wantIdx) {
		t.Fatalf("nz = %d, want %d", nz, len(wantIdx))
	}
	for i, k := range wantIdx {
		if idx[i] != k || math.Float32bits(val[i]) != math.Float32bits(src[k]) {
			t.Fatalf("entry %d: (%d,%v) want (%d,%v)", i, idx[i], val[i], k, src[k])
		}
	}
}

// TestCompactF32Exact is the exactness gate of both compaction entry points
// (DESIGN.md §14): whichever kernel the process runs, they return what the
// plain loops return.
func TestCompactF32Exact(t *testing.T) {
	edges := compactEdges()
	checkCompactF32(t, edges)

	// Each edge pattern at each lane of a two-vector row plus a scalar
	// tail, among neighbours that are all kept and then all dropped — so the
	// pattern's own verdict and the packing of what follows it both show.
	for _, fill := range []float32{1.5, -1.5, 0} {
		for _, e := range edges {
			for pos := 0; pos < 19; pos++ {
				src := make([]float32, 19)
				for i := range src {
					src[i] = fill
				}
				src[pos] = e
				checkCompactF32(t, src)
			}
		}
	}

	rng := rand.New(rand.NewSource(36))
	randomRow := func(n int) []float32 {
		src := make([]float32, n)
		for i := range src {
			switch rng.Intn(8) {
			case 0:
				src[i] = edges[rng.Intn(len(edges))]
			case 1:
				src[i] = math.Float32frombits(rng.Uint32())
			default:
				src[i] = float32(rng.NormFloat64())
			}
		}
		return src
	}
	// Every length around the vector width, then the network's own widths.
	for n := 0; n <= 40; n++ {
		for trial := 0; trial < 8; trial++ {
			checkCompactF32(t, randomRow(n))
		}
	}
	for _, n := range []int{66, 128, 256, 512} {
		for trial := 0; trial < 8; trial++ {
			checkCompactF32(t, randomRow(n))
		}
	}
	for trial := 0; trial < 200; trial++ {
		src := make([]float32, rng.Intn(300))
		for i := range src {
			src[i] = math.Float32frombits(rng.Uint32())
		}
		checkCompactF32(t, src)
	}
}

// TestCompactF32ShortOutputPanics: the vector kernels store eight lanes at
// the cursor whatever the predicate says, so output slices shorter than src
// must be refused before the call — even for a row the scalar loop would
// have survived because nothing in it is kept.
func TestCompactF32ShortOutputPanics(t *testing.T) {
	panics := func(f func()) (msg string) {
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
			}
		}()
		f()
		return ""
	}
	kept, dropped := make([]float32, 16), make([]float32, 16)
	for i := range kept {
		kept[i] = 1
	}
	for _, c := range compactions {
		for _, short := range []struct{ idx, val int }{{15, 16}, {16, 15}, {0, 0}} {
			idx, val := make([]int32, short.idx), make([]float32, short.val)
			if panics(func() { c.fn(idx, val, kept) }) == "" {
				t.Fatalf("%s: no panic with %d/%d outputs for 16 kept inputs", c.name, short.idx, short.val)
			}
			if !useAVX2 {
				continue
			}
			want := fmt.Sprintf("tensor: %s idx/val length %d/%d < src 16", c.name, short.idx, short.val)
			if got := panics(func() { c.fn(idx, val, dropped) }); got != want {
				t.Fatalf("%s: panic %q, want %q", c.name, got, want)
			}
		}
	}
}

// FuzzCompactF32 reads the input as raw float32 bit patterns and holds both
// compaction entry points to the plain loops, count and prefix.
func FuzzCompactF32(f *testing.F) {
	seed := make([]byte, 0, 4*20)
	for _, e := range compactEdges() {
		seed = binary.LittleEndian.AppendUint32(seed, math.Float32bits(e))
	}
	f.Add(seed)
	f.Add(seed[:4*9])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 4*4096 {
			raw = raw[:4*4096]
		}
		src := make([]float32, len(raw)/4)
		for i := range src {
			src[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		checkCompactF32(t, src)
	})
}

func TestSparseRowDotColumnF64(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	_, w := randF32(128, 1, rng)
	idx := []int32{3, 17, 99}
	val := []float32{0.5, -1.25, 2}
	got := SparseRowDotColumnF64(w, 0.75, 0, idx, val)
	want := 0.75
	for k, id := range idx {
		want += float64(val[k]) * float64(w.Data[int(id)*w.Cols+0])
	}
	if got != want {
		t.Fatalf("f64 dot: %v != %v", got, want)
	}
}

func TestSparseKernelZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	_, w := randF32(128, 256, rng)
	row := make([]float32, 128)
	for i := range row {
		row[i] = float32(rng.NormFloat64())
	}
	bias := make([]float32, 256)
	idx := make([]int32, 128)
	val := make([]float32, 128)
	dst := make([]float32, 256)
	if n := testing.AllocsPerRun(10, func() {
		nz := CompactNonzeroF32(idx, val, row)
		SparseRowMatMulF32Into(dst, bias, w, idx[:nz], val[:nz])
	}); n != 0 {
		t.Fatalf("sparse kernel allocates %v per run, want 0", n)
	}
}
