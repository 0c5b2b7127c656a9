package nn

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/tensor"
)

// ckptProblem builds a small deterministic binary classification problem
// and a freshly initialised network for it.
func ckptProblem(t *testing.T) (*tensor.Matrix, *tensor.Matrix, func() *Network) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	n, dim := 240, 8
	x := tensor.NewMatrix(n, dim)
	y := tensor.NewMatrix(n, 1)
	for i := 0; i < n; i++ {
		var s float64
		for j := 0; j < dim; j++ {
			v := rng.NormFloat64()
			x.Set(i, j, v)
			s += v
		}
		if s > 0 {
			y.Set(i, 0, 1)
		}
	}
	mk := func() *Network {
		return NewMLP(dim, []int{16, 8}, 1, rand.New(rand.NewSource(7)))
	}
	return x, y, mk
}

func ckptCfg() TrainConfig {
	cfg := DefaultTrainConfig()
	cfg.Epochs = 6
	cfg.BatchSize = 32
	return cfg
}

func paramsEqual(t *testing.T, a, b *Network) {
	t.Helper()
	pa, pb := a.Params(), b.Params()
	if len(pa) != len(pb) {
		t.Fatalf("param tensor counts differ: %d vs %d", len(pa), len(pb))
	}
	for i := range pa {
		for j := range pa[i].Data {
			if pa[i].Data[j] != pb[i].Data[j] {
				t.Fatalf("param[%d][%d] differs: %v vs %v", i, j, pa[i].Data[j], pb[i].Data[j])
			}
		}
	}
}

// TestKillAndRestartResumesBitIdentically is the acceptance contract:
// training interrupted after 3 of 6 epochs and restarted from the
// checkpoint (a fresh process would see exactly this state) reaches the
// same final loss and the same weights, bit for bit, as an uninterrupted
// run.
func TestKillAndRestartResumesBitIdentically(t *testing.T) {
	x, y, mk := ckptProblem(t)
	cfg := ckptCfg()
	dir := t.TempDir()

	// Reference: uninterrupted 6-epoch run with checkpointing on.
	refPath := filepath.Join(dir, "ref.ckpt")
	ref := mk()
	refHist, err := ref.FitCheckpointed(x, y, BCEWithLogits{}, cfg, refPath, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(refHist) != cfg.Epochs {
		t.Fatalf("reference ran %d epochs, want %d", len(refHist), cfg.Epochs)
	}

	// "Killed" run: 3 epochs, then the process dies.
	path := filepath.Join(dir, "train.ckpt")
	killed := mk()
	halfCfg := cfg
	halfCfg.Epochs = 3
	if _, err := killed.FitCheckpointed(x, y, BCEWithLogits{}, halfCfg, path, 1); err != nil {
		t.Fatal(err)
	}

	// Restart: a brand-new network object (fresh process) resumes from the
	// checkpoint and finishes the remaining epochs.
	resumed := mk()
	hist, err := resumed.FitCheckpointed(x, y, BCEWithLogits{}, cfg, path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != cfg.Epochs-3 {
		t.Fatalf("resumed run trained %d epochs, want %d", len(hist), cfg.Epochs-3)
	}
	if got, want := hist[len(hist)-1], refHist[len(refHist)-1]; got != want {
		t.Fatalf("final loss differs after resume: %v vs uninterrupted %v", got, want)
	}
	paramsEqual(t, resumed, ref)
}

func TestFitCheckpointedNoopWhenComplete(t *testing.T) {
	x, y, mk := ckptProblem(t)
	cfg := ckptCfg()
	path := filepath.Join(t.TempDir(), "done.ckpt")
	net := mk()
	if _, err := net.FitCheckpointed(x, y, BCEWithLogits{}, cfg, path, 1); err != nil {
		t.Fatal(err)
	}
	before := net.Params()[0].Data[0]
	hist, err := net.FitCheckpointed(x, y, BCEWithLogits{}, cfg, path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if hist != nil {
		t.Fatalf("completed run trained %d more epochs", len(hist))
	}
	if net.Params()[0].Data[0] != before {
		t.Fatalf("completed run mutated weights")
	}
}

func TestSaveCheckpointIsAtomic(t *testing.T) {
	x, y, mk := ckptProblem(t)
	_ = x
	_ = y
	dir := t.TempDir()
	path := filepath.Join(dir, "a.ckpt")
	net := mk()
	opt := NewAdamW(1e-3, 0)
	if err := SaveCheckpoint(path, net, opt, 1); err != nil {
		t.Fatal(err)
	}
	// No temporary litter left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory has %d entries after save, want 1", len(entries))
	}
	ep, err := LoadCheckpoint(path, mk(), NewAdamW(1e-3, 0))
	if err != nil {
		t.Fatal(err)
	}
	if ep != 1 {
		t.Fatalf("epoch = %d, want 1", ep)
	}
}

func TestLoadCheckpointRejectsTruncation(t *testing.T) {
	_, _, mk := ckptProblem(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "a.ckpt")
	net := mk()
	opt := NewAdamW(1e-3, 0)
	if err := SaveCheckpoint(path, net, opt, 2); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 4, 19, 20, len(raw) / 2, len(raw) - 1} {
		trunc := filepath.Join(dir, "trunc.ckpt")
		if err := os.WriteFile(trunc, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadCheckpoint(trunc, mk(), NewAdamW(1e-3, 0)); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
}

func TestLoadCheckpointRejectsBitFlips(t *testing.T) {
	_, _, mk := ckptProblem(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "a.ckpt")
	if err := SaveCheckpoint(path, mk(), NewAdamW(1e-3, 0), 2); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	// Every payload bit flip must be caught by the CRC; header flips must
	// be caught by magic/version/length checks.
	for trial := 0; trial < 50; trial++ {
		mut := append([]byte(nil), raw...)
		pos := rng.Intn(len(mut))
		mut[pos] ^= 1 << rng.Intn(8)
		flipped := filepath.Join(dir, "flip.ckpt")
		if err := os.WriteFile(flipped, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadCheckpoint(flipped, mk(), NewAdamW(1e-3, 0)); err == nil {
			t.Fatalf("trial %d: bit flip at byte %d accepted", trial, pos)
		}
	}
}

func TestLoadCheckpointRejectsShapeMismatch(t *testing.T) {
	_, _, mk := ckptProblem(t)
	path := filepath.Join(t.TempDir(), "a.ckpt")
	if err := SaveCheckpoint(path, mk(), NewAdamW(1e-3, 0), 1); err != nil {
		t.Fatal(err)
	}
	other := NewMLP(8, []int{4}, 1, rand.New(rand.NewSource(1)))
	if _, err := LoadCheckpoint(path, other, NewAdamW(1e-3, 0)); err == nil {
		t.Fatal("checkpoint loaded into a differently shaped network")
	}
}

// TestLoadCheckpointRejectsHostileOptimiserState: a checkpoint whose CRC is
// valid but whose AdamW state would poison the resumed run — a non-finite
// first moment, a negative or non-finite second moment, a step count int
// cannot hold, or the stateless optimiser kind — is refused, and neither
// the network nor the optimiser changes.
func TestLoadCheckpointRejectsHostileOptimiserState(t *testing.T) {
	_, _, mk := ckptProblem(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "a.ckpt")
	net := mk()
	if err := SaveCheckpoint(path, net, NewAdamW(1e-3, 0), 2); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Payload: header (20 bytes), epoch and tensor count, each tensor's
	// length and values, then the kind byte, t, m and v (v ends the file).
	kind := 20 + 8
	for _, p := range net.Params() {
		kind += 4 + 8*len(p.Data)
	}
	tOff, mOff, vLast := kind+1, kind+9, len(raw)-8
	le := binary.LittleEndian
	putFloat := func(off int, v float64) func([]byte) {
		return func(b []byte) { le.PutUint64(b[off:], math.Float64bits(v)) }
	}
	for _, tc := range []struct {
		name  string
		patch func([]byte)
	}{
		{"NaN m", putFloat(mOff, math.NaN())},
		{"+Inf m", putFloat(mOff, math.Inf(1))},
		{"negative v", putFloat(vLast, -1)},
		{"NaN v", putFloat(vLast, math.NaN())},
		{"+Inf v", putFloat(vLast, math.Inf(1))},
		{"t above MaxInt64", func(b []byte) { le.PutUint64(b[tOff:], 1<<63) }},
		{"stateless kind", func(b []byte) { b[kind] = 0 }},
	} {
		mut := append([]byte(nil), raw...)
		tc.patch(mut)
		le.PutUint32(mut[8:], crc32.ChecksumIEEE(mut[20:]))
		hostile := filepath.Join(dir, "hostile.ckpt")
		if err := os.WriteFile(hostile, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		got, opt := mk(), NewAdamW(1e-3, 0)
		if _, err := LoadCheckpoint(hostile, got, opt); err == nil {
			t.Errorf("%s: checkpoint loaded without error", tc.name)
		}
		if opt.t != 0 || opt.m != nil || opt.v != nil {
			t.Errorf("%s: a refused load changed the optimiser", tc.name)
		}
		paramsEqual(t, got, mk())
	}
}

// TestFitCheckpointedStopsAtFailedSave: a checkpoint that cannot be written
// stops training at the epoch whose save failed, and the error comes back
// with that epoch's loss, instead of every remaining epoch training with
// nothing to resume from.
func TestFitCheckpointedStopsAtFailedSave(t *testing.T) {
	x, y, mk := ckptProblem(t)
	path := filepath.Join(t.TempDir(), "missing", "train.ckpt")
	hist, err := mk().FitCheckpointed(x, y, BCEWithLogits{}, ckptCfg(), path, 1)
	if err == nil {
		t.Fatal("FitCheckpointed reported success with an unwritable checkpoint path")
	}
	if len(hist) != 1 {
		t.Fatalf("history has %d epochs, want 1: training must stop at the failed save", len(hist))
	}
}

func TestFitCheckpointedSurfacesCorruptCheckpoint(t *testing.T) {
	x, y, mk := ckptProblem(t)
	path := filepath.Join(t.TempDir(), "bad.ckpt")
	if err := os.WriteFile(path, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := mk().FitCheckpointed(x, y, BCEWithLogits{}, ckptCfg(), path, 1); err == nil {
		t.Fatal("FitCheckpointed silently accepted a corrupt checkpoint")
	}
}
