package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cpukit"
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

// shadowCfg is the candidate configuration of the shadow tests, its
// training checkpointed at ckpt. Features is left to shadowTrain.
func shadowCfg(ckpt string) DetectorConfig {
	cfg := DetectorConfig{
		Hidden: []int{16, 8},
		Train:  quickDetectorCfg(dataset.FeatCSIEnv).Train,
		Seed:   7,
	}
	cfg.Train.Checkpoint = ckpt
	return cfg
}

// shadowTrain trains a shadow candidate the way occutrain and loadgen do:
// TrainDetector on the logged frames under dir, pseudo-labelled by active,
// with active's features. It returns the candidate and its frame count.
func shadowTrain(active *Detector, dir string, maxFrames int, cfg DetectorConfig) (*Detector, int, error) {
	ds, err := PseudoLabel(active, dir, nil, maxFrames)
	if err != nil {
		return nil, 0, err
	}
	cfg.Features = active.Features
	det, err := TrainDetector(ds, cfg)
	return det, ds.Len(), err
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

// TestShadowTrainValidate: PseudoLabel refuses what it cannot replay
// before touching a log.
func TestShadowTrainValidate(t *testing.T) {
	_, split := testSplit(t)
	active, err := TrainDetector(split.Train.Thin(300), quickDetectorCfg(dataset.FeatCSIEnv))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for name, call := range map[string]func() error{
		"nil active":   func() error { _, err := PseudoLabel(nil, dir, nil, 0); return err },
		"no log dir":   func() error { _, err := PseudoLabel(active, "", nil, 0); return err },
		"negative cap": func() error { _, err := PseudoLabel(active, dir, nil, -1); return err },
		"unknown feed": func() error { _, err := PseudoLabel(active, dir, []string{"nope"}, 0); return err },
		"empty log":    func() error { _, err := PseudoLabel(active, dir, nil, 0); return err },
	} {
		if call() == nil {
			t.Errorf("%s accepted", name)
		}
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

	c1, n1, err := shadowTrain(active, dir, 0, shadowCfg(filepath.Join(t.TempDir(), "ck1.bin")))
	if err != nil {
		t.Fatal(err)
	}
	if n1 != len(logRecs) {
		t.Fatalf("trained on %d frames, logs hold %d", n1, len(logRecs))
	}
	if c1.Features != active.Features {
		t.Fatalf("candidate features %v != active %v", c1.Features, active.Features)
	}

	c2, n2, err := shadowTrain(active, dir, 0, shadowCfg(filepath.Join(t.TempDir(), "ck2.bin")))
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
// the bit-identical weight trajectory — nn.Fit's resume contract, proven
// end to end through the log-replay path — and so does a finished run
// extended from 2 to 4 epochs.
func TestShadowTrainResume(t *testing.T) {
	_, split := testSplit(t)
	active, err := TrainDetector(split.Train.Thin(800), quickDetectorCfg(dataset.FeatCSIEnv))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	writeShadowLog(t, dir, "room", split.Folds[0].Thin(500).Records)

	full := shadowCfg(filepath.Join(t.TempDir(), "full.bin"))
	full.Train.Epochs = 4
	want, _, err := shadowTrain(active, dir, 0, full)
	if err != nil {
		t.Fatal(err)
	}

	// "Interrupted" run: stop after 2 epochs, then re-run to 4 with the
	// same checkpoint path.
	part := shadowCfg(filepath.Join(t.TempDir(), "resume.bin"))
	part.Train.Epochs = 2
	if _, _, err := shadowTrain(active, dir, 0, part); err != nil {
		t.Fatal(err)
	}
	part.Train.Epochs = 4
	got, _, err := shadowTrain(active, dir, 0, part)
	if err != nil {
		t.Fatal(err)
	}
	if detectorHash(got) != detectorHash(want) {
		t.Fatal("resumed candidate diverged from the uninterrupted run")
	}
}

// TestShadowTrainRefusesStaleCheckpoint: a second shadow run on new logs
// that finds the first run's finished checkpoint at its path must not train
// zero epochs and hand back the first run's weights under the new run's
// scaler. The checkpoint belongs to other data, so the run is refused with
// an error naming the file.
func TestShadowTrainRefusesStaleCheckpoint(t *testing.T) {
	_, split := testSplit(t)
	active, err := TrainDetector(split.Train.Thin(800), quickDetectorCfg(dataset.FeatCSIEnv))
	if err != nil {
		t.Fatal(err)
	}
	first, second := t.TempDir(), t.TempDir()
	writeShadowLog(t, first, "room", split.Folds[0].Thin(300).Records)
	writeShadowLog(t, second, "room", split.Folds[1].Thin(300).Records)

	cfg := shadowCfg(filepath.Join(t.TempDir(), "cand.bin.ckpt"))
	cfg.Train.Epochs = 2
	if _, _, err := shadowTrain(active, first, 0, cfg); err != nil {
		t.Fatal(err)
	}
	cand, _, err := shadowTrain(active, second, 0, cfg)
	if err == nil {
		t.Fatalf("a run on new logs resumed the previous run's finished checkpoint (candidate %#016x)", detectorHash(cand))
	}
	if !strings.Contains(err.Error(), cfg.Train.Checkpoint) {
		t.Fatalf("refusal does not name the checkpoint file: %v", err)
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

	ds, err := PseudoLabel(active, dir, nil, 100)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 100 {
		t.Fatalf("cap ignored: %d frames", ds.Len())
	}
	// The first 100 frames not dropped, in append order, each labelled by
	// the active detector.
	for i, j := 0, 0; i < ds.Len(); j++ {
		if j%5 == 0 {
			continue
		}
		want := recs[j]
		_, want.Count = active.PredictRecord(&want)
		if ds.Records[i] != want {
			t.Fatalf("frame %d is not log record %d pseudo-labelled", i, j)
		}
		i++
	}
}

// detectorHash is FNV-1a over a detector's parameters in layer order, then
// its scaler's means and standard deviations.
func detectorHash(d *Detector) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(vals []float64) {
		for _, v := range vals {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	for _, p := range d.Net.Params() {
		put(p.Data)
	}
	put(d.Scaler.Mean)
	put(d.Scaler.Std)
	return h.Sum64()
}

// TestShadowCandidateGolden pins the bits of a shadow candidate — weights
// and scaler — trained on two feeds' logs under a MaxFrames cap that ends
// inside the second feed. The shadow trainer's plumbing (replay order, the
// cap, pseudo-labels, scaler, init, fit) may be restructured only if this
// constant holds under both OCCU_KERNEL settings.
func TestShadowCandidateGolden(t *testing.T) {
	const want = uint64(0xe5318a19eccdcaf0)
	_, split := testSplit(t)
	active, err := TrainDetector(split.Train.Thin(800), quickDetectorCfg(dataset.FeatCSIEnv))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	recs := split.Train.Thin(600).Records
	writeShadowLog(t, dir, "room-a", recs[:len(recs)/2])
	writeShadowLog(t, dir, "room-b", recs[len(recs)/2:])

	cfg := shadowCfg(filepath.Join(t.TempDir(), "ck.bin"))
	cfg.Train.Epochs = 2
	maxFrames := len(recs) - 50
	cand, n, err := shadowTrain(active, dir, maxFrames, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n != maxFrames {
		t.Fatalf("trained on %d frames, want the cap %d", n, maxFrames)
	}
	if got := detectorHash(cand); got != want {
		t.Fatalf("shadow candidate hash %#016x under kernel %s, want %#016x", got, cpukit.Active(), want)
	}
}
