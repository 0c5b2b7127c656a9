package nn

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func TestSaveLoadRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	net := NewNetwork(
		NewDense(6, 10, rng), NewReLU(),
		NewDense(10, 4, rng),
		NewDense(4, 1, rng), NewReLU(),
	)
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.String() != net.String() {
		t.Fatalf("architecture mismatch: %q vs %q", back.String(), net.String())
	}
	// float32 storage: predictions agree to float32 precision.
	x := tensor.NewMatrix(5, 6).RandomizeNormal(rng, 1)
	a := net.Forward(x, false)
	b := back.Forward(x, false)
	for i := range a.Data {
		if d := a.Data[i] - b.Data[i]; d > 1e-4 || d < -1e-4 {
			t.Fatalf("prediction drift %g", d)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})); err == nil {
		t.Fatal("expected bad magic error")
	}
	if _, err := Load(bytes.NewReader(nil)); err == nil {
		t.Fatal("expected EOF error")
	}
	// Truncated valid header.
	rng := rand.New(rand.NewSource(23))
	net := NewMLP(4, []int{8}, 1, rng)
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := Load(bytes.NewReader(trunc)); err == nil {
		t.Fatal("expected truncation error")
	}
	// Kinds 2–4 held the Sigmoid, Tanh and Dropout layers no model builds:
	// a bundle with one is refused as unknown, never a panic.
	for kind := byte(2); kind <= 4; kind++ {
		want := fmt.Sprintf("unknown layer kind %d", kind)
		if _, err := Load(bytes.NewReader(oneLayerModel(kind))); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("layer kind %d: Load error %v, want %q", kind, err, want)
		}
	}
}

// oneLayerModel is a valid model header for a one-layer network followed by
// that layer's kind byte.
func oneLayerModel(kind byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, modelMagic)
	b = binary.LittleEndian.AppendUint32(b, modelVersion)
	b = binary.LittleEndian.AppendUint32(b, 1)
	return append(b, kind)
}

// TestNonFiniteParametersRefused: a NaN weight, a ±Inf bias, or a finite
// weight beyond ±MaxFloat32 (which float32 storage would turn into ±Inf)
// fails Save, and a bundle holding one — written by patching a marked
// parameter of a finite model — fails Load.
func TestNonFiniteParametersRefused(t *testing.T) {
	const mark = float32(1234.5)
	for _, bad := range []struct {
		name string
		v    float64
		bias bool
	}{
		{"NaN weight", math.NaN(), false},
		{"+Inf bias", math.Inf(1), true},
		{"-Inf weight", math.Inf(-1), false},
		{"weight 1e39", 1e39, false},
	} {
		at := func(net *Network) *float64 {
			d := net.Layers[2].(*Dense)
			if bad.bias {
				return &d.B.Data[0]
			}
			return &d.W.Data[3]
		}
		net := NewMLP(4, []int{8}, 1, rand.New(rand.NewSource(27)))
		*at(net) = bad.v
		if err := net.Save(io.Discard); err == nil {
			t.Errorf("%s: Save wrote it", bad.name)
		}
		*at(net) = float64(mark)
		var buf bytes.Buffer
		if err := net.Save(&buf); err != nil {
			t.Fatal(err)
		}
		var markBits, badBits [4]byte
		binary.LittleEndian.PutUint32(markBits[:], math.Float32bits(mark))
		binary.LittleEndian.PutUint32(badBits[:], math.Float32bits(float32(bad.v)))
		if n := bytes.Count(buf.Bytes(), markBits[:]); n != 1 {
			t.Fatalf("%s: marked parameter found %d times in the bundle", bad.name, n)
		}
		raw := bytes.Replace(buf.Bytes(), markBits[:], badBits[:], 1)
		if _, err := Load(bytes.NewReader(raw)); err == nil {
			t.Errorf("%s: Load read it", bad.name)
		}
	}
}

// Property: save→load→save produces byte-identical output (the format is
// canonical).
func TestQuickSerializationCanonical(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		hidden := []int{1 + rng.Intn(8)}
		net := NewMLP(1+rng.Intn(6), hidden, 1+rng.Intn(3), rng)
		var b1 bytes.Buffer
		if err := net.Save(&b1); err != nil {
			return false
		}
		back, err := Load(bytes.NewReader(b1.Bytes()))
		if err != nil {
			return false
		}
		var b2 bytes.Buffer
		if err := back.Save(&b2); err != nil {
			return false
		}
		return bytes.Equal(b1.Bytes(), b2.Bytes())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestSaveLoadCNN(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	net := NewCNN(64, 1, rng)
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.String() != net.String() {
		t.Fatalf("architecture mismatch: %q vs %q", back.String(), net.String())
	}
	x := tensor.NewMatrix(3, 64).RandomizeNormal(rng, 1)
	a := net.Forward(x, false)
	b := back.Forward(x, false)
	for i := range a.Data {
		if d := a.Data[i] - b.Data[i]; d > 1e-4 || d < -1e-4 {
			t.Fatalf("CNN prediction drift %g", d)
		}
	}
}
