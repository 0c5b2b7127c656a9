package nn

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/atomicfile"
	"repro/internal/tensor"
)

func fuzzSeedModel(t testing.TB) []byte {
	net := NewMLP(8, []int{16, 8}, 1, rand.New(rand.NewSource(3)))
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadRejectsTruncation: every strict prefix of a valid model must fail
// with an error — never a panic, never a silently short network.
func TestLoadRejectsTruncation(t *testing.T) {
	raw := fuzzSeedModel(t)
	full, err := Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	nLayers := len(full.Layers)
	step := 1
	if len(raw) > 4096 {
		step = 37 // prime stride keeps the loop fast on big models
	}
	for cut := 0; cut < len(raw); cut += step {
		n, err := Load(bytes.NewReader(raw[:cut]))
		if err == nil && len(n.Layers) == nLayers {
			t.Fatalf("truncation to %d of %d bytes loaded a full network", cut, len(raw))
		}
		if err == nil {
			t.Fatalf("truncation to %d bytes accepted (%d layers)", cut, len(n.Layers))
		}
	}
}

// TestLoadNeverPanicsOnBitFlips: a flipped weight byte may legitimately load
// (it is just a different weight) but flips must never panic, and header
// flips that change structure must error.
func TestLoadNeverPanicsOnBitFlips(t *testing.T) {
	raw := fuzzSeedModel(t)
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		mut := append([]byte(nil), raw...)
		mut[rng.Intn(len(mut))] ^= 1 << rng.Intn(8)
		_, _ = Load(bytes.NewReader(mut)) // must not panic
	}
}

// TestLoadRejectsHostileHeaderFast: a tiny file claiming enormous tensors
// must be rejected quickly without attempting the allocation.
func TestLoadRejectsHostileHeaderFast(t *testing.T) {
	// magic, version, 1 layer, dense 1<<20 x 1<<20 — an 8 TiB weight claim.
	hostile := []byte{
		0x4E, 0x57, 0x43, 0x4F, // "OCWN" little-endian
		1, 0, 0, 0,
		1, 0, 0, 0,
		0,           // kindDense
		0, 0, 16, 0, // in  = 1<<20
		0, 0, 16, 0, // out = 1<<20
	}
	start := time.Now()
	if _, err := Load(bytes.NewReader(hostile)); err == nil {
		t.Fatal("hostile dense header accepted")
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("hostile header took %v to reject — allocation not capped", d)
	}
}

// FuzzLoad drives Load with arbitrary bytes: any input may be rejected but
// none may panic, and an accepted input must round-trip through Save.
func FuzzLoad(f *testing.F) {
	raw := fuzzSeedModel(f)
	f.Add(raw)
	f.Add(raw[:len(raw)/2])
	f.Add([]byte{})
	mut := append([]byte(nil), raw...)
	mut[11] ^= 0x40
	f.Add(mut)
	f.Add(oneLayerModel(4)) // a retired kind (Dropout's)
	f.Fuzz(func(t *testing.T, data []byte) {
		net, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := net.Save(&buf); err != nil {
			t.Fatalf("loaded network failed to re-save: %v", err)
		}
	})
}

// FuzzLoadCheckpoint drives loadCheckpoint with arbitrary bytes: any input
// may be rejected — with an error, leaving the network and the optimiser
// untouched — but none may panic, and an accepted input must re-save to the
// same bytes.
func FuzzLoadCheckpoint(f *testing.F) {
	mk := func() *Network { return NewMLP(4, []int{3}, 1, rand.New(rand.NewSource(5))) }
	dir := f.TempDir()
	seed := func(epoch int, trained bool) []byte {
		net, opt := mk(), NewAdamW(1e-3, 1e-4)
		if trained {
			x := tensor.NewMatrix(8, 4).RandomizeNormal(rand.New(rand.NewSource(6)), 1)
			newTrainStep(net, MSE{}, opt, clipNorm).run(x, tensor.NewMatrix(8, 1))
		}
		path := filepath.Join(dir, "seed.ckpt")
		if err := saveCheckpoint(path, net, opt, epoch, testRun); err != nil {
			f.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		return raw
	}
	fresh, trained := seed(0, false), seed(3, true)
	f.Add(fresh)
	f.Add(trained)
	f.Add(trained[:len(trained)/2])
	f.Add([]byte{})
	stale := append([]byte(nil), trained[atomicfile.HeaderLen:]...)
	stale[0] ^= 1 // another run's fingerprint, under a valid CRC
	f.Add(atomicfile.Seal(ckptMagic, ckptVersion, stale))
	v2 := append([]byte(nil), trained...) // the version-2 header is refused
	binary.LittleEndian.PutUint32(v2[4:], 2)
	f.Add(v2)
	f.Fuzz(func(t *testing.T, data []byte) {
		net, opt := mk(), NewAdamW(1e-3, 1e-4)
		epoch, err := loadCheckpoint(data, net, opt, testRun)
		if err != nil {
			if opt.t != 0 || opt.m != nil || opt.v != nil {
				t.Fatal("a refused load changed the optimiser")
			}
			paramsEqual(t, net, mk())
			return
		}
		path := filepath.Join(t.TempDir(), "re.ckpt")
		if err := saveCheckpoint(path, net, opt, epoch, testRun); err != nil {
			t.Fatal(err)
		}
		re, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re, data) {
			t.Fatal("an accepted checkpoint does not re-save to its own bytes")
		}
	})
}
