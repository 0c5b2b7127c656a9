package tensor

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func matricesEqual(t *testing.T, got, want *Matrix, tol float64) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("shape mismatch: got %dx%d want %dx%d", got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range got.Data {
		if !almostEq(got.Data[i], want.Data[i], tol) {
			t.Fatalf("element %d: got %g want %g", i, got.Data[i], want.Data[i])
		}
	}
}

// transpose returns a newly allocated mᵀ, the reference the ATB/ABT
// kernels are checked against.
func transpose(m *Matrix) *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

func TestNewMatrixZeroed(t *testing.T) {
	m := NewMatrix(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("bad dims: %+v", m)
	}
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("not zeroed")
		}
	}
}

func TestAtSetRow(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 7.5)
	if m.At(1, 2) != 7.5 {
		t.Fatalf("At/Set roundtrip failed")
	}
	r := m.Row(1)
	r[0] = -1 // aliases the backing storage
	if m.At(1, 0) != -1 {
		t.Fatal("Row must alias storage")
	}
}

func TestFromRowsAndClone(t *testing.T) {
	m := FromSlice(2, 2, []float64{1, 2, 3, 4})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone must not alias")
	}
	if m.At(1, 1) != 4 {
		t.Fatal("FromSlice wrong layout")
	}
}

func TestScale(t *testing.T) {
	a := FromSlice(2, 2, []float64{1, 2, 3, 4})
	a.Scale(2)
	matricesEqual(t, a, FromSlice(2, 2, []float64{2, 4, 6, 8}), 0)
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice(2, 2, []float64{1, 2, 3, 4})
	b := FromSlice(2, 2, []float64{5, 6, 7, 8})
	got := MatMul(nil, a, b)
	matricesEqual(t, got, FromSlice(2, 2, []float64{19, 22, 43, 50}), 1e-12)
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewMatrix(5, 5).RandomizeNormal(rng, 1)
	id := NewMatrix(5, 5)
	for i := 0; i < 5; i++ {
		id.Set(i, i, 1)
	}
	matricesEqual(t, MatMul(nil, a, id), a, 1e-12)
	matricesEqual(t, MatMul(nil, id, a), a, 1e-12)
}

func TestMatMulDstReuse(t *testing.T) {
	a := FromSlice(2, 2, []float64{1, 0, 0, 1})
	b := FromSlice(2, 2, []float64{2, 3, 4, 5})
	dst := NewMatrix(2, 2)
	dst.Fill(999) // must be overwritten, not accumulated
	MatMul(dst, a, b)
	matricesEqual(t, dst, b, 0)
}

// mustFanOut fails a test whose shape no longer reaches the parallel path it
// exists to cover (matmulParallelThreshold moves when the kernels do).
func mustFanOut(t *testing.T, work int) {
	t.Helper()
	if work < matmulParallelThreshold {
		t.Fatalf("shape has %d MACs, below matmulParallelThreshold %d: the parallel path is not exercised", work, matmulParallelThreshold)
	}
}

// TestMatMulParallelMatchesSerial forces the parallel path and checks it
// against a reference triple loop.
func TestMatMulParallelMatchesSerial(t *testing.T) {
	const m, k, n = 140, 90, 90
	mustFanOut(t, m*k*n)
	rng := rand.New(rand.NewSource(2))
	a := NewMatrix(m, k).RandomizeNormal(rng, 1)
	b := NewMatrix(k, n).RandomizeNormal(rng, 1)
	got := MatMul(nil, a, b)
	want := NewMatrix(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for kk := 0; kk < k; kk++ {
				s += a.At(i, kk) * b.At(kk, j)
			}
			want.Set(i, j, s)
		}
	}
	matricesEqual(t, got, want, 1e-9)
}

func TestMatMulATB(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := NewMatrix(13, 7).RandomizeNormal(rng, 1)
	b := NewMatrix(13, 5).RandomizeNormal(rng, 1)
	got := MatMulATB(nil, a, b)
	want := MatMul(nil, transpose(a), b)
	matricesEqual(t, got, want, 1e-10)
}

func TestMatMulABT(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := NewMatrix(9, 6).RandomizeNormal(rng, 1)
	b := NewMatrix(11, 6).RandomizeNormal(rng, 1)
	got := MatMulABT(nil, a, b)
	want := MatMul(nil, a, transpose(b))
	matricesEqual(t, got, want, 1e-10)
}

// TestMatMulATBParallelMatchesReference forces the parallel path (work ≥
// matmulParallelThreshold) and checks against the transpose reference.
func TestMatMulATBParallelMatchesReference(t *testing.T) {
	mustFanOut(t, 300*64*64)
	rng := rand.New(rand.NewSource(5))
	a := NewMatrix(300, 64).RandomizeNormal(rng, 1)
	b := NewMatrix(300, 64).RandomizeNormal(rng, 1)
	got := MatMulATB(nil, a, b)
	want := MatMul(nil, transpose(a), b)
	matricesEqual(t, got, want, 1e-9)
}

// TestMatMulABTParallelMatchesReference does the same for a×bᵀ.
func TestMatMulABTParallelMatchesReference(t *testing.T) {
	mustFanOut(t, 200*64*90)
	rng := rand.New(rand.NewSource(6))
	a := NewMatrix(200, 64).RandomizeNormal(rng, 1)
	b := NewMatrix(90, 64).RandomizeNormal(rng, 1)
	got := MatMulABT(nil, a, b)
	want := MatMul(nil, a, transpose(b))
	matricesEqual(t, got, want, 1e-9)
}

// TestMatMulKernelsDeterministicUnderGOMAXPROCS pins the determinism
// contract the parallel experiment engine relies on: the kernels partition
// output rows, never the accumulation order, so single-threaded and
// multi-threaded runs agree bit for bit.
func TestMatMulKernelsDeterministicUnderGOMAXPROCS(t *testing.T) {
	mustFanOut(t, 257*96*130)
	rng := rand.New(rand.NewSource(7))
	a := NewMatrix(257, 96).RandomizeNormal(rng, 1)
	b := NewMatrix(96, 130).RandomizeNormal(rng, 1)
	c := NewMatrix(257, 130).RandomizeNormal(rng, 1)
	d := NewMatrix(130, 96).RandomizeNormal(rng, 1)

	prev := runtime.GOMAXPROCS(1)
	ab1 := MatMul(nil, a, b)
	atb1 := MatMulATB(nil, a, c)
	abt1 := MatMulABT(nil, a, d)
	runtime.GOMAXPROCS(8)
	abN := MatMul(nil, a, b)
	atbN := MatMulATB(nil, a, c)
	abtN := MatMulABT(nil, a, d)
	runtime.GOMAXPROCS(prev)

	for _, pair := range [][2]*Matrix{{ab1, abN}, {atb1, atbN}, {abt1, abtN}} {
		for i, v := range pair[0].Data {
			if v != pair[1].Data[i] {
				t.Fatalf("element %d differs across GOMAXPROCS: %g vs %g", i, v, pair[1].Data[i])
			}
		}
	}
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on inner dim mismatch")
		}
	}()
	MatMul(nil, NewMatrix(2, 3), NewMatrix(2, 3))
}

func TestAddRowVectorColSums(t *testing.T) {
	m := FromSlice(3, 2, []float64{1, 2, 3, 4, 5, 6})
	m.AddRowVector([]float64{10, 20})
	matricesEqual(t, m, FromSlice(3, 2, []float64{11, 22, 13, 24, 15, 26}), 0)
	sums := m.ColSums()
	if sums[0] != 39 || sums[1] != 72 {
		t.Fatalf("ColSums got %v", sums)
	}
	means := m.ColMeans()
	if !almostEq(means[0], 13, 1e-12) || !almostEq(means[1], 24, 1e-12) {
		t.Fatalf("ColMeans got %v", means)
	}
}

func TestMaxAbs(t *testing.T) {
	m := FromSlice(2, 2, []float64{-5, 2, 3, -1})
	if m.MaxAbs() != 5 {
		t.Fatalf("MaxAbs got %g", m.MaxAbs())
	}
}

func TestKaimingInitBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := NewMatrix(50, 50).KaimingInit(rng, 50)
	bound := math.Sqrt(6.0 / 50.0)
	for _, v := range m.Data {
		if math.Abs(v) >= bound+1e-12 {
			t.Fatalf("value %g outside Kaiming bound %g", v, bound)
		}
	}
	if m.MaxAbs() < bound/4 {
		t.Fatal("init suspiciously small; RNG not applied?")
	}
}

// Property: (Aᵀ·B)ᵀ == Bᵀ·A and (B·Cᵀ)ᵀ == C·Bᵀ for random shapes.
func TestQuickTransposeProduct(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(8)
		k := 1 + rng.Intn(8)
		n := 1 + rng.Intn(8)
		a := NewMatrix(k, m).RandomizeNormal(rng, 1)
		b := NewMatrix(k, n).RandomizeNormal(rng, 1)
		c := NewMatrix(m, n).RandomizeNormal(rng, 1)
		for _, p := range [][2]*Matrix{
			{transpose(MatMulATB(nil, a, b)), MatMulATB(nil, b, a)},
			{transpose(MatMulABT(nil, b, c)), MatMulABT(nil, c, b)},
		} {
			lhs, rhs := p[0], p[1]
			if !lhs.SameShape(rhs) {
				return false
			}
			for i := range lhs.Data {
				if !almostEq(lhs.Data[i], rhs.Data[i], 1e-10) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMatrixString(t *testing.T) {
	small := FromSlice(2, 2, []float64{1, 2, 3, 4})
	s := small.String()
	if s != "Matrix(2x2)[1 2; 3 4]" {
		t.Fatalf("small render %q", s)
	}
	big := NewMatrix(20, 20)
	if big.String() != "Matrix(20x20)" {
		t.Fatalf("big render %q", big.String())
	}
}

func TestFromSliceValidation(t *testing.T) {
	m := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	if m.At(1, 2) != 6 {
		t.Fatal("layout")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected length panic")
		}
	}()
	FromSlice(2, 3, []float64{1})
}

func TestZeroAndFill(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Fill(7)
	matricesEqual(t, m, FromSlice(2, 2, []float64{7, 7, 7, 7}), 0)
	m.Zero()
	matricesEqual(t, m, NewMatrix(2, 2), 0)
}

// TestMatMulParallelZeroAlloc pins the parallel dispatch path to zero heap
// allocations per call: the matmulJob pool replaced the per-call closure
// that used to escape into the fan-out. GOMAXPROCS is forced to 1 so the
// chunk runner executes inline and the measurement excludes goroutine
// machinery, isolating exactly the dispatch-path allocation.
func TestMatMulParallelZeroAlloc(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	rng := rand.New(rand.NewSource(61))
	// 128³ MACs is above matmulParallelThreshold, so this takes the
	// parallel branch of MatMul.
	mustFanOut(t, 128*128*128)
	a := NewMatrix(128, 128).RandomizeNormal(rng, 1)
	b := NewMatrix(128, 128).RandomizeNormal(rng, 1)
	dst := NewMatrix(128, 128)
	// Many runs, because AllocsPerRun reports the floor of the mean and
	// under -race sync.Pool.Put discards one object in four on purpose:
	// over 5 runs those refills alone reached a mean of 1 in about a third
	// of attempts; over 100 they stay near 0.75 while one real allocation
	// per call still reads 3.
	if n := testing.AllocsPerRun(100, func() {
		MatMul(dst, a, b)
		MatMulATB(dst, a, b)
		MatMulABT(dst, a, b)
	}); n != 0 {
		t.Fatalf("parallel matmul dispatch allocates %v per run, want 0", n)
	}
}

// TestRowMatMulInto checks the fused single-sample kernel against the 1×N
// matrix path, bias included, bit for bit.
func TestRowMatMulInto(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, s := range []struct{ k, n int }{{1, 1}, {7, 5}, {66, 128}, {256, 129}, {515, 2049}} {
		row := make([]float64, s.k)
		for i := range row {
			row[i] = rng.NormFloat64()
		}
		row[0] = 0 // exercise the zero-skip branch
		b := NewMatrix(s.k, s.n).RandomizeNormal(rng, 1)
		bias := make([]float64, s.n)
		for i := range bias {
			bias[i] = rng.NormFloat64()
		}
		want := MatMul(nil, FromSlice(1, s.k, row), b)
		want.AddRowVector(bias)
		dst := make([]float64, s.n)
		RowMatMulInto(dst, row, b, bias)
		for j, v := range want.Data {
			if dst[j] != v {
				t.Fatalf("%dx%d: RowMatMulInto diverges at %d: %v != %v", s.k, s.n, j, dst[j], v)
			}
		}
		// nil bias variant.
		want2 := MatMul(nil, FromSlice(1, s.k, row), b)
		RowMatMulInto(dst, row, b, nil)
		for j, v := range want2.Data {
			if dst[j] != v {
				t.Fatalf("%dx%d: RowMatMulInto(nil bias) diverges at %d", s.k, s.n, j)
			}
		}
	}
}

func TestRowMatMulIntoPanics(t *testing.T) {
	b := NewMatrix(3, 2)
	for _, fn := range []func(){
		func() { RowMatMulInto(make([]float64, 2), make([]float64, 2), b, nil) },
		func() { RowMatMulInto(make([]float64, 3), make([]float64, 3), b, nil) },
		func() { RowMatMulInto(make([]float64, 2), make([]float64, 3), b, make([]float64, 1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic on shape mismatch")
				}
			}()
			fn()
		}()
	}
}
