package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomSPD builds a random symmetric positive definite n×n matrix.
func randomSPD(rng *rand.Rand, n int) *Matrix {
	a := NewMatrix(n, n).RandomizeNormal(rng, 1)
	spd := MatMulATB(nil, a, a) // AᵀA is PSD
	for i := 0; i < n; i++ {
		spd.Data[i*n+i] += float64(n) // make strictly PD
	}
	return spd
}

func TestCholeskyKnown(t *testing.T) {
	// Classic example: [[4,12,-16],[12,37,-43],[-16,-43,98]] = LLᵀ with
	// L = [[2,0,0],[6,1,0],[-8,5,3]].
	a := FromSlice(3, 3, []float64{4, 12, -16, 12, 37, -43, -16, -43, 98})
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	want := FromSlice(3, 3, []float64{2, 0, 0, 6, 1, 0, -8, 5, 3})
	matricesEqual(t, l, want, 1e-10)
}

func TestCholeskyReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for n := 1; n <= 12; n++ {
		a := randomSPD(rng, n)
		l, err := Cholesky(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		back := MatMulABT(nil, l, l)
		matricesEqual(t, back, a, 1e-8)
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := FromSlice(2, 2, []float64{1, 2, 2, 1}) // eigenvalues 3, -1
	if _, err := Cholesky(a); err == nil {
		t.Fatal("expected failure on indefinite matrix")
	}
	if _, err := Cholesky(NewMatrix(2, 3)); err == nil {
		t.Fatal("expected failure on non-square matrix")
	}
}

func TestCholeskySolve(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := randomSPD(rng, 8)
	xTrue := NewMatrix(8, 3).RandomizeNormal(rng, 1)
	b := MatMul(nil, a, xTrue)
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	x := CholeskySolve(l, b)
	matricesEqual(t, x, xTrue, 1e-8)
}

func TestSolveSPDWithRidgeOnSingular(t *testing.T) {
	// Rank-deficient matrix: duplicate columns.
	a := FromSlice(2, 2, []float64{2, 2, 2, 2})
	b := FromSlice(2, 1, []float64{1, 1})
	x, err := SolveSPD(a, b, 0)
	if err != nil {
		t.Fatalf("SolveSPD must escalate ridge and succeed: %v", err)
	}
	// The ridge is tiny, so any returned solution must still satisfy the
	// (consistent) original system A·x = b.
	res := MatMul(nil, a, x)
	for i, v := range b.Data {
		res.Data[i] -= v
	}
	if res.MaxAbs() > 1e-6 {
		t.Fatalf("residual too large: %v (x=%v)", res, x)
	}
}

func TestSolveSPDExact(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := randomSPD(rng, 6)
	xTrue := NewMatrix(6, 1).RandomizeNormal(rng, 2)
	b := MatMul(nil, a, xTrue)
	x, err := SolveSPD(a, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	matricesEqual(t, x, xTrue, 1e-8)
}

// Property: solving against a random SPD system reproduces the planted
// solution within tolerance.
func TestQuickSPDSolveRoundtrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(9)
		a := randomSPD(rng, n)
		xTrue := NewMatrix(n, 1).RandomizeNormal(rng, 1)
		b := MatMul(nil, a, xTrue)
		x, err := SolveSPD(a, b, 0)
		if err != nil {
			return false
		}
		for i := range x.Data {
			if math.Abs(x.Data[i]-xTrue.Data[i]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestVectorOps(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	if Dot(a, b) != 32 {
		t.Fatalf("Dot got %g", Dot(a, b))
	}
	dst := []float64{1, 1, 1}
	Axpy(dst, 2, a)
	if dst[0] != 3 || dst[1] != 5 || dst[2] != 7 {
		t.Fatalf("Axpy got %v", dst)
	}
	if !almostEq(Norm2([]float64{3, 4}), 5, 1e-12) {
		t.Fatal("Norm2")
	}
	if Clamp(5, 0, 3) != 3 || Clamp(-5, 0, 3) != 0 || Clamp(2, 0, 3) != 2 {
		t.Fatal("Clamp")
	}
}

func TestMatVecVecMat(t *testing.T) {
	m := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	mv := MatVec(m, []float64{1, 1, 1})
	if mv[0] != 6 || mv[1] != 15 {
		t.Fatalf("MatVec got %v", mv)
	}
}
