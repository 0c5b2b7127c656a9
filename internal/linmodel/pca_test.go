package linmodel

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// anisotropic generates samples stretched along a planted direction.
func anisotropic(rng *rand.Rand, n, d int, dir []float64, scale float64) *tensor.Matrix {
	x := tensor.NewMatrix(n, d)
	for i := 0; i < n; i++ {
		t := rng.NormFloat64() * scale
		row := x.Row(i)
		for j := 0; j < d; j++ {
			row[j] = t*dir[j] + 0.1*rng.NormFloat64() + 5 // +5: non-zero mean
		}
	}
	return x
}

func TestPCARecoversPlantedDirection(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	dir := []float64{0.6, 0.8, 0, 0}
	x := anisotropic(rng, 500, 4, dir, 3)
	p, err := FitPCA(x, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	// First component aligns with the planted direction (up to sign).
	c0 := p.Components.Row(0)
	dot := math.Abs(tensor.Dot(c0, dir))
	if dot < 0.99 {
		t.Fatalf("first component misaligned: |cos|=%g (%v)", dot, c0)
	}
	// Dominant eigenvalue ≈ planted variance 9 (+ noise floor).
	if p.Explained[0] < 7 || p.Explained[0] > 11 {
		t.Fatalf("eigenvalue %g", p.Explained[0])
	}
	// Components orthonormal.
	c1 := p.Components.Row(1)
	for _, dev := range []float64{tensor.Dot(c0, c0) - 1, tensor.Dot(c1, c1) - 1, tensor.Dot(c0, c1)} {
		if math.Abs(dev) > 1e-6 {
			t.Fatalf("orthonormality deviation %g", dev)
		}
	}
	// Eigenvalues non-increasing.
	if p.Explained[1] > p.Explained[0]+1e-9 {
		t.Fatalf("eigenvalues out of order: %v", p.Explained)
	}
}

func TestPCATransformAndReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	dir := []float64{1, 0, 0}
	x := anisotropic(rng, 300, 3, dir, 2)
	p, err := FitPCA(x, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	z := p.Transform(x)
	if z.Rows != 300 || z.Cols != 1 {
		t.Fatal("projection shape")
	}
	// Rank-1 reconstruction (mean + z·component) recovers most of the
	// variance.
	var rss, tss float64
	means := x.ColMeans()
	c0 := p.Components.Row(0)
	for i := 0; i < x.Rows; i++ {
		for j := 0; j < x.Cols; j++ {
			back := p.Mean[j] + z.At(i, 0)*c0[j]
			rss += (x.At(i, j) - back) * (x.At(i, j) - back)
			tss += (x.At(i, j) - means[j]) * (x.At(i, j) - means[j])
		}
	}
	if rss/tss > 0.05 {
		t.Fatalf("rank-1 reconstruction error %g too high", rss/tss)
	}
	// The dominant component's share of the total variance is near 1.
	if ratio := p.Explained[0] / (tss / float64(x.Rows)); ratio < 0.9 {
		t.Fatalf("explained ratio %g", ratio)
	}
}

func TestPCAFullRankIdentity(t *testing.T) {
	// k = d: the components are a complete orthonormal basis, so projecting
	// and expanding back on them is (numerically) the identity.
	rng := rand.New(rand.NewSource(3))
	x := tensor.NewMatrix(100, 4).RandomizeNormal(rng, 1)
	p, err := FitPCA(x, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	z := p.Transform(x)
	for i := 0; i < x.Rows; i++ {
		back := append([]float64(nil), p.Mean...)
		for c := 0; c < 4; c++ {
			tensor.Axpy(back, z.At(i, c), p.Components.Row(c))
		}
		for j, v := range x.Row(i) {
			if math.Abs(v-back[j]) > 1e-6 {
				t.Fatalf("full-rank roundtrip drift at (%d,%d): %g vs %g", i, j, v, back[j])
			}
		}
	}
}

func TestPCAValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := tensor.NewMatrix(10, 3).RandomizeNormal(rng, 1)
	if _, err := FitPCA(x, 0, 1); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := FitPCA(x, 4, 1); err == nil {
		t.Fatal("k>d accepted")
	}
	if _, err := FitPCA(tensor.NewMatrix(1, 3), 1, 1); err == nil {
		t.Fatal("single sample accepted")
	}
	p, err := FitPCA(x, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected width panic")
		}
	}()
	p.Transform(tensor.NewMatrix(1, 5))
}

func TestPCADeterministicForSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := tensor.NewMatrix(200, 6).RandomizeNormal(rng, 1)
	a, err := FitPCA(x, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FitPCA(x, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Components.Data {
		if a.Components.Data[i] != b.Components.Data[i] {
			t.Fatal("PCA must be deterministic for a seed")
		}
	}
}
