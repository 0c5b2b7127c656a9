package rf

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

func trainedForest(t *testing.T, regression bool) (*Forest, *tensor.Matrix) {
	t.Helper()
	rng := rand.New(rand.NewSource(61))
	n := 300
	x := tensor.NewMatrix(n, 4).RandomizeNormal(rng, 1)
	cfg := DefaultForestConfig()
	cfg.NumTrees = 8
	if regression {
		y := make([]float64, n)
		for i := range y {
			y[i] = x.At(i, 0)*2 + x.At(i, 1)
		}
		return FitRegressor(x, y, cfg), x
	}
	y := make([]int, n)
	for i := range y {
		if x.At(i, 0) > 0 {
			y[i] = 1
		}
	}
	return FitClassifier(x, y, cfg), x
}

func TestForestSaveLoadRoundtrip(t *testing.T) {
	for _, regression := range []bool{false, true} {
		f, x := trainedForest(t, regression)
		var buf bytes.Buffer
		if err := f.Save(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if back.regression != regression || back.nFeatures != 4 || len(back.Trees) != 8 {
			t.Fatalf("metadata lost: %+v", back)
		}
		// Bit-identical predictions.
		for i := 0; i < x.Rows; i++ {
			if f.PredictProb(x.Row(i)) != back.PredictProb(x.Row(i)) {
				t.Fatal("prediction drift after roundtrip")
			}
		}
		if f.NumNodes() != back.NumNodes() {
			t.Fatal("node count drift")
		}
	}
}

func TestForestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte{1, 2, 3, 4})); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := Load(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
	// Truncated valid stream.
	f, _ := trainedForest(t, false)
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bytes.NewReader(buf.Bytes()[:buf.Len()/3])); err == nil {
		t.Fatal("truncation accepted")
	}
	// Corrupt a node's feature index beyond nFeatures.
	data := append([]byte(nil), buf.Bytes()...)
	// Header: 4 magic + 1 flags + 4 nfeat + 4 ntrees + 4 nnodes = 17; the
	// first node's feature int32 begins at offset 17.
	data[17] = 0x7F
	data[18] = 0x7F
	if _, err := Load(bytes.NewReader(data)); err == nil {
		t.Fatal("corrupt feature index accepted")
	}
}
