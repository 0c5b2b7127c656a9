package core

import (
	"math"
	"path/filepath"
	"testing"

	"repro/internal/dataset"
	"repro/internal/fault"
	"repro/internal/framelog"
)

// writeShadowLog persists n records from the split as a frame log under
// dir, the way the serving tier's durability layer would.
func writeShadowLog(t *testing.T, dir, feed string, recs []dataset.Record) {
	t.Helper()
	w, _, err := framelog.Open(framelog.Config{Dir: dir, Fsync: framelog.FsyncOff}, feed)
	if err != nil {
		t.Fatal(err)
	}
	frames := make([]fault.Frame, len(recs))
	for i, r := range recs {
		frames[i] = fault.Frame{Rec: r, Index: i, EnvOK: true, Truth: r}
	}
	if _, err := w.AppendBatch(frames); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func shadowCfg(dir, ckpt string) ShadowTrainConfig {
	return ShadowTrainConfig{
		LogDir:         dir,
		CheckpointPath: ckpt,
		Detector: DetectorConfig{
			Hidden: []int{16, 8},
			Train:  quickDetectorCfg(dataset.FeatCSIEnv).Train,
			Seed:   7,
		},
	}
}

// predictBits fingerprints a detector by the exact bits of its scores over
// a probe set.
func predictBits(d *Detector, recs []dataset.Record) []uint64 {
	out := make([]uint64, len(recs))
	for i := range recs {
		p, _ := d.PredictRecord(&recs[i])
		out[i] = math.Float64bits(p)
	}
	return out
}

func TestShadowTrainValidate(t *testing.T) {
	if err := (ShadowTrainConfig{}).Validate(); err == nil {
		t.Fatal("empty config validated")
	}
	if err := (ShadowTrainConfig{LogDir: "x"}).Validate(); err == nil {
		t.Fatal("missing checkpoint path validated")
	}
	if err := (ShadowTrainConfig{LogDir: "x", CheckpointPath: "y", MaxFrames: -1}).Validate(); err == nil {
		t.Fatal("negative MaxFrames validated")
	}
	if _, _, err := ShadowTrain(nil, ShadowTrainConfig{LogDir: "x", CheckpointPath: "y"}); err == nil {
		t.Fatal("nil active accepted")
	}
}

// TestShadowTrainDeterministicDistill: training from the same log twice
// produces bit-identical candidates, the candidate inherits the active
// feature set, and it substantially agrees with its pseudo-labeler.
func TestShadowTrainDeterministicDistill(t *testing.T) {
	_, split := testSplit(t)
	active, err := TrainDetector(split.Train.Thin(1200), quickDetectorCfg(dataset.FeatCSIEnv))
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	logRecs := split.Train.Thin(900).Records
	writeShadowLog(t, dir, "room-a", logRecs[:len(logRecs)/2])
	writeShadowLog(t, dir, "room-b", logRecs[len(logRecs)/2:])

	c1, n1, err := ShadowTrain(active, shadowCfg(dir, filepath.Join(t.TempDir(), "ck1.bin")))
	if err != nil {
		t.Fatal(err)
	}
	if n1 != len(logRecs) {
		t.Fatalf("trained on %d frames, logs hold %d", n1, len(logRecs))
	}
	if c1.Features != active.Features {
		t.Fatalf("candidate features %v != active %v", c1.Features, active.Features)
	}

	c2, n2, err := ShadowTrain(active, shadowCfg(dir, filepath.Join(t.TempDir(), "ck2.bin")))
	if err != nil {
		t.Fatal(err)
	}
	probe := logRecs[:200]
	b1, b2 := predictBits(c1, probe), predictBits(c2, probe)
	if n1 != n2 {
		t.Fatalf("frame counts diverged: %d vs %d", n1, n2)
	}
	for i := range b1 {
		if b1[i] != b2[i] {
			t.Fatalf("rerun diverged at probe %d", i)
		}
	}

	// The candidate distills the incumbent: high label agreement on the
	// traffic it trained on.
	agree := 0
	for i := range probe {
		_, la := active.PredictRecord(&probe[i])
		_, lc := c1.PredictRecord(&probe[i])
		if la == lc {
			agree++
		}
	}
	if frac := float64(agree) / float64(len(probe)); frac < 0.85 {
		t.Fatalf("candidate agrees with the active model on only %.0f%% of probes", 100*frac)
	}
}

// TestShadowTrainResume: a run interrupted after a checkpoint resumes into
// the bit-identical weight trajectory — the FitCheckpointed contract,
// proven end to end through the log-replay path.
func TestShadowTrainResume(t *testing.T) {
	_, split := testSplit(t)
	active, err := TrainDetector(split.Train.Thin(800), quickDetectorCfg(dataset.FeatCSIEnv))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	writeShadowLog(t, dir, "room", split.Folds[0].Thin(500).Records)

	full := shadowCfg(dir, filepath.Join(t.TempDir(), "full.bin"))
	full.Detector.Train.Epochs = 4
	want, _, err := ShadowTrain(active, full)
	if err != nil {
		t.Fatal(err)
	}

	// "Interrupted" run: stop after 2 epochs, then re-run to 4 with the
	// same checkpoint path.
	ckpt := filepath.Join(t.TempDir(), "resume.bin")
	part := full
	part.CheckpointPath = ckpt
	part.Detector.Train.Epochs = 2
	if _, _, err := ShadowTrain(active, part); err != nil {
		t.Fatal(err)
	}
	part.Detector.Train.Epochs = 4
	got, _, err := ShadowTrain(active, part)
	if err != nil {
		t.Fatal(err)
	}

	probe := split.Folds[0].Thin(200).Records
	bw, bg := predictBits(want, probe), predictBits(got, probe)
	for i := range bw {
		if bw[i] != bg[i] {
			t.Fatalf("resumed candidate diverged from uninterrupted run at probe %d", i)
		}
	}
}

// TestShadowTrainMaxFrames: the cap truncates deterministically and skips
// dropped frames.
func TestShadowTrainMaxFrames(t *testing.T) {
	_, split := testSplit(t)
	active, err := TrainDetector(split.Train.Thin(800), quickDetectorCfg(dataset.FeatCSIEnv))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	recs := split.Folds[0].Thin(300).Records
	w, _, err := framelog.Open(framelog.Config{Dir: dir, Fsync: framelog.FsyncOff}, "room")
	if err != nil {
		t.Fatal(err)
	}
	frames := make([]fault.Frame, 0, len(recs))
	for i, r := range recs {
		fr := fault.Frame{Rec: r, Index: i, EnvOK: true, Truth: r}
		if i%5 == 0 {
			fr.Dropped = true // no CSI: must not become a training row
		}
		frames = append(frames, fr)
	}
	if _, err := w.AppendBatch(frames); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	cfg := shadowCfg(dir, filepath.Join(t.TempDir(), "ck.bin"))
	cfg.Detector.Train.Epochs = 1
	cfg.MaxFrames = 100
	_, n, err := ShadowTrain(active, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Fatalf("cap ignored: trained on %d frames", n)
	}

	// An empty log errors instead of training on nothing.
	cfg.LogDir = t.TempDir()
	if _, _, err := ShadowTrain(active, cfg); err == nil {
		t.Fatal("empty log dir trained")
	}
}
