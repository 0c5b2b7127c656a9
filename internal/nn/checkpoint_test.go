package nn

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/atomicfile"
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

// ckptCfg is the checkpointed training run of these tests, saving to path.
func ckptCfg(path string) TrainConfig {
	cfg := DefaultTrainConfig()
	cfg.Epochs = 6
	cfg.BatchSize = 32
	cfg.Checkpoint = path
	return cfg
}

// testRun is the run fingerprint the codec tests stamp and expect.
const testRun = 0x0123456789ABCDEF

// readCheckpoint loads the checkpoint file at path as run testRun.
func readCheckpoint(t *testing.T, path string, n *Network, opt *AdamW) (int, error) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return loadCheckpoint(raw, n, opt, testRun)
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
	dir := t.TempDir()
	cfg := ckptCfg(filepath.Join(dir, "ref.ckpt"))

	// Reference: uninterrupted 6-epoch run with checkpointing on.
	ref := mk()
	refHist, err := ref.Fit(x, y, BCEWithLogits{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(refHist) != cfg.Epochs {
		t.Fatalf("reference ran %d epochs, want %d", len(refHist), cfg.Epochs)
	}

	// "Killed" run: 3 epochs, then the process dies.
	cfg.Checkpoint = filepath.Join(dir, "train.ckpt")
	killed := mk()
	halfCfg := cfg
	halfCfg.Epochs = 3
	if _, err := killed.Fit(x, y, BCEWithLogits{}, halfCfg); err != nil {
		t.Fatal(err)
	}

	// Restart: a brand-new network object (fresh process) resumes from the
	// checkpoint and finishes the remaining epochs.
	resumed := mk()
	hist, err := resumed.Fit(x, y, BCEWithLogits{}, cfg)
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

// TestFitCheckpointedNoopWhenComplete: rerunning a finished checkpointed
// run (a fresh process rebuilds the same starting network) trains no epoch
// and hands back the finished weights.
func TestFitCheckpointedNoopWhenComplete(t *testing.T) {
	x, y, mk := ckptProblem(t)
	cfg := ckptCfg(filepath.Join(t.TempDir(), "done.ckpt"))
	done := mk()
	if _, err := done.Fit(x, y, BCEWithLogits{}, cfg); err != nil {
		t.Fatal(err)
	}
	rerun := mk()
	hist, err := rerun.Fit(x, y, BCEWithLogits{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if hist != nil {
		t.Fatalf("completed run trained %d more epochs", len(hist))
	}
	paramsEqual(t, rerun, done)
}

func TestSaveCheckpointIsAtomic(t *testing.T) {
	_, _, mk := ckptProblem(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "a.ckpt")
	net := mk()
	opt := NewAdamW(1e-3, 0)
	if err := saveCheckpoint(path, net, opt, 1, testRun); err != nil {
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
	ep, err := readCheckpoint(t, path, mk(), NewAdamW(1e-3, 0))
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
	if err := saveCheckpoint(path, net, opt, 2, testRun); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 4, 15, 16, len(raw) / 2, len(raw) - 1} {
		if _, err := loadCheckpoint(raw[:cut], mk(), NewAdamW(1e-3, 0), testRun); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
}

func TestLoadCheckpointRejectsBitFlips(t *testing.T) {
	_, _, mk := ckptProblem(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "a.ckpt")
	if err := saveCheckpoint(path, mk(), NewAdamW(1e-3, 0), 2, testRun); err != nil {
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
		if _, err := loadCheckpoint(mut, mk(), NewAdamW(1e-3, 0), testRun); err == nil {
			t.Fatalf("trial %d: bit flip at byte %d accepted", trial, pos)
		}
	}
}

func TestLoadCheckpointRejectsShapeMismatch(t *testing.T) {
	_, _, mk := ckptProblem(t)
	path := filepath.Join(t.TempDir(), "a.ckpt")
	if err := saveCheckpoint(path, mk(), NewAdamW(1e-3, 0), 1, testRun); err != nil {
		t.Fatal(err)
	}
	other := NewMLP(8, []int{4}, 1, rand.New(rand.NewSource(1)))
	if _, err := readCheckpoint(t, path, other, NewAdamW(1e-3, 0)); err == nil {
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
	if err := saveCheckpoint(path, net, NewAdamW(1e-3, 0), 2, testRun); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Payload, after the 16-byte envelope header: run fingerprint, epoch and
	// tensor count, each tensor's length and values, then the kind byte, t,
	// m and v (v ends the file). Offsets are into the payload.
	payload := raw[atomicfile.HeaderLen:]
	kind := 16
	for _, p := range net.Params() {
		kind += 4 + 8*len(p.Data)
	}
	tOff, mOff, vLast := kind+1, kind+9, len(payload)-8
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
		mut := append([]byte(nil), payload...)
		tc.patch(mut)
		mut = atomicfile.Seal(ckptMagic, ckptVersion, mut)
		got, opt := mk(), NewAdamW(1e-3, 0)
		if _, err := loadCheckpoint(mut, got, opt, testRun); err == nil {
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
	cfg := ckptCfg(filepath.Join(t.TempDir(), "missing", "train.ckpt"))
	hist, err := mk().Fit(x, y, BCEWithLogits{}, cfg)
	if err == nil {
		t.Fatal("Fit reported success with an unwritable checkpoint path")
	}
	if len(hist) != 1 {
		t.Fatalf("history has %d epochs, want 1: training must stop at the failed save", len(hist))
	}
}

// TestFitRefusesVersion2Checkpoint: a checkpoint in the version-2 layout
// (its own header: magic, version, CRC, a 64-bit length) is refused with an
// error naming the file, not resumed or overwritten.
func TestFitRefusesVersion2Checkpoint(t *testing.T) {
	x, y, mk := ckptProblem(t)
	cfg := ckptCfg(filepath.Join(t.TempDir(), "v2.ckpt"))
	cfg.Epochs = 1
	if _, err := mk().Fit(x, y, BCEWithLogits{}, cfg); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(cfg.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	payload := raw[atomicfile.HeaderLen:]
	le := binary.LittleEndian
	v2 := le.AppendUint32(nil, ckptMagic)
	v2 = le.AppendUint32(v2, 2)
	v2 = le.AppendUint32(v2, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	v2 = le.AppendUint64(v2, uint64(len(payload)))
	v2 = append(v2, payload...)
	if err := os.WriteFile(cfg.Checkpoint, v2, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg.Epochs = 2
	net := mk()
	hist, err := net.Fit(x, y, BCEWithLogits{}, cfg)
	if err == nil || !strings.Contains(err.Error(), cfg.Checkpoint) || !strings.Contains(err.Error(), "version 2") {
		t.Fatalf("Fit answered %v (trained %d epochs), want a version-2 refusal naming %s", err, len(hist), cfg.Checkpoint)
	}
	paramsEqual(t, net, mk())
	if got, _ := os.ReadFile(cfg.Checkpoint); !bytes.Equal(got, v2) {
		t.Fatal("the refused checkpoint was overwritten")
	}
}

func TestFitCheckpointedSurfacesCorruptCheckpoint(t *testing.T) {
	x, y, mk := ckptProblem(t)
	path := filepath.Join(t.TempDir(), "bad.ckpt")
	if err := os.WriteFile(path, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := mk().Fit(x, y, BCEWithLogits{}, ckptCfg(path)); err == nil {
		t.Fatal("Fit silently accepted a corrupt checkpoint")
	}
}

// TestFitRefusesCheckpointOfAnotherRun: a checkpoint resumes only the run
// that wrote it. Changing the data, the starting weights, the loss or any
// hyper-parameter but Epochs makes Fit refuse the file, naming it, and
// leave the network as it was; changing Epochs extends the run.
func TestFitRefusesCheckpointOfAnotherRun(t *testing.T) {
	x, y, mk := ckptProblem(t)
	cfg := ckptCfg(filepath.Join(t.TempDir(), "run.ckpt"))
	cfg.Epochs = 2
	if _, err := mk().Fit(x, y, BCEWithLogits{}, cfg); err != nil {
		t.Fatal(err)
	}

	xOther := tensor.FromSlice(x.Rows, x.Cols, append([]float64(nil), x.Data...))
	xOther.Data[17] = math.Nextafter(xOther.Data[17], math.Inf(1))
	yOther := tensor.FromSlice(y.Rows, y.Cols, append([]float64(nil), y.Data...))
	yOther.Data[3] = 1 - yOther.Data[3]
	for _, tc := range []struct {
		name string
		x, y *tensor.Matrix
		net  func() *Network
		loss Loss
		edit func(*TrainConfig)
	}{
		{name: "x", x: xOther},
		{name: "y", y: yOther},
		{name: "initial weights", net: func() *Network { return NewMLP(8, []int{16, 8}, 1, rand.New(rand.NewSource(8))) }},
		{name: "loss", loss: MSE{}},
		{name: "BatchSize", edit: func(c *TrainConfig) { c.BatchSize = 16 }},
		{name: "LR", edit: func(c *TrainConfig) { c.LR *= 2 }},
		{name: "WeightDecay", edit: func(c *TrainConfig) { c.WeightDecay = 0 }},
		{name: "Seed", edit: func(c *TrainConfig) { c.Seed++ }},
	} {
		tx, ty, mkNet, loss, c := x, y, mk, Loss(BCEWithLogits{}), cfg
		if tc.x != nil {
			tx = tc.x
		}
		if tc.y != nil {
			ty = tc.y
		}
		if tc.net != nil {
			mkNet = tc.net
		}
		if tc.loss != nil {
			loss = tc.loss
		}
		if tc.edit != nil {
			tc.edit(&c)
		}
		c.Epochs = 4
		net := mkNet()
		hist, err := net.Fit(tx, ty, loss, c)
		if err == nil || !strings.Contains(err.Error(), cfg.Checkpoint) {
			t.Errorf("%s changed: Fit answered %v (trained %d epochs), want a refusal naming %s", tc.name, err, len(hist), cfg.Checkpoint)
		}
		paramsEqual(t, net, mkNet())
	}

	// Only Epochs changed: the run resumes from epoch 2.
	cfg.Epochs = 4
	hist, err := mk().Fit(x, y, BCEWithLogits{}, cfg)
	if err != nil || len(hist) != 2 {
		t.Fatalf("extending the run: %d epochs, %v; want 2 and no error", len(hist), err)
	}
}
