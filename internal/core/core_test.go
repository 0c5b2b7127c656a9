package core

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/linmodel"
	"repro/internal/nn"
)

// testSplit generates a small but regime-rich trace: late afternoon through
// the night into the next morning, so both classes appear in train and test.
func testSplit(t *testing.T) (*dataset.Dataset, *dataset.Split) {
	t.Helper()
	cfg := dataset.DefaultGenConfig(1.0/20, 5) // one sample / 20 s
	cfg.Start = time.Date(2022, 1, 5, 12, 0, 0, 0, time.UTC)
	cfg.Duration = 26 * time.Hour
	d, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	split, err := d.PaperSplit()
	if err != nil {
		t.Fatal(err)
	}
	return d, split
}

// quickCfg returns a small-but-real experiment configuration for tests.
func quickCfg() ExperimentConfig {
	cfg := DefaultExperimentConfig()
	cfg.Hidden = []int{32, 16}
	cfg.NNTrain.Epochs = 6
	cfg.NNTrain.BatchSize = 64
	cfg.MaxTrainSamples = 1500
	cfg.MaxEvalSamples = 400
	cfg.RF.NumTrees = 10
	cfg.RF.MaxDepth = 12
	return cfg
}

func quickDetectorCfg(feat dataset.FeatureSet) DetectorConfig {
	dcfg := DefaultDetectorConfig()
	dcfg.Features = feat
	dcfg.Hidden = []int{32, 16}
	dcfg.Train.Epochs = 6
	dcfg.Train.BatchSize = 64
	return dcfg
}

func TestTrainDetectorAndEvaluate(t *testing.T) {
	_, split := testSplit(t)
	det, err := TrainDetector(split.Train.Thin(1500), quickDetectorCfg(dataset.FeatCSI))
	if err != nil {
		t.Fatal(err)
	}
	// In-sample sanity: the CSI detector must beat chance comfortably.
	cm := det.Evaluate(split.Train.Thin(800))
	if cm.Accuracy() < 0.8 {
		t.Fatalf("train accuracy %.3f too low", cm.Accuracy())
	}
	// Single-record prediction agrees with batch path.
	r := &split.Train.Records[0]
	p, label := det.PredictRecord(r)
	if p < 0 || p > 1 {
		t.Fatalf("probability %g", p)
	}
	if (p >= 0.5) != (label == 1) {
		t.Fatal("threshold inconsistency")
	}
}

func TestTrainDetectorEmpty(t *testing.T) {
	if _, err := TrainDetector(&dataset.Dataset{}, DefaultDetectorConfig()); err == nil {
		t.Fatal("empty training set must error")
	}
}

func TestDetectorSaveLoadRoundtrip(t *testing.T) {
	_, split := testSplit(t)
	det, err := TrainDetector(split.Train.Thin(800), quickDetectorCfg(dataset.FeatCSIEnv))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := det.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadDetector(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Features != dataset.FeatCSIEnv {
		t.Fatal("feature set lost")
	}
	// Predictions agree to float32 precision.
	for i := 0; i < 20; i++ {
		r := &split.Train.Records[i*10]
		p1, _ := det.PredictRecord(r)
		p2, _ := back.PredictRecord(r)
		if d := p1 - p2; d > 1e-3 || d < -1e-3 {
			t.Fatalf("prediction drift %g", d)
		}
	}
}

// unsavable is a layer the bundle format has no kind for: saving a network
// that holds one fails after the layers before it were written.
type unsavable struct{ *nn.ReLU }

// TestSaveFileIsAtomic: a save that fails partway leaves the previous bundle
// byte-identical and no temporary file beside it.
func TestSaveFileIsAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "detector.bin")
	det := &Detector{
		Net:      nn.NewMLP(dataset.FeatCSIEnv.Dim(), []int{64}, 1, rand.New(rand.NewSource(3))),
		Scaler:   &linmodel.Scaler{Mean: make([]float64, dataset.FeatCSIEnv.Dim()), Std: make([]float64, dataset.FeatCSIEnv.Dim())},
		Features: dataset.FeatCSIEnv,
	}
	for i := range det.Scaler.Std {
		det.Scaler.Std[i] = 1
	}
	if err := det.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	broken := *det
	broken.Net = &nn.Network{Layers: append(append([]nn.Layer(nil), det.Net.Layers...), unsavable{})}
	if err := broken.SaveFile(path); err == nil {
		t.Fatal("saving an unsavable network succeeded")
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, good) {
		t.Fatalf("the failed save changed the previous bundle (err %v)", err)
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 1 {
		t.Fatalf("the failed save left %d entries beside the bundle (err %v)", len(ents), err)
	}
	if back, err := LoadDetectorFile(path); err != nil || back.Features != det.Features {
		t.Fatalf("the previous bundle no longer loads: %v", err)
	}
}

func TestLoadDetectorRejectsGarbage(t *testing.T) {
	if _, err := LoadDetector(bytes.NewReader([]byte{9, 9, 9, 9})); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := LoadDetector(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty reader accepted")
	}
}

// TestEnvRegressorLearns drives Table V's MLP cell through buildInputs and
// cell.fit, the way runCells trains and scores it.
func TestEnvRegressorLearns(t *testing.T) {
	_, split := testSplit(t)
	c := cell{feat: dataset.FeatCSI, task: envTH, model: mlp, hidden: []int{32, 16}, std: true, train: nn.DefaultTrainConfig(), seed: 1}
	c.train.Epochs = 10
	c.train.BatchSize = 64
	in, err := buildInputs(split.Train.Thin(1500), c, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	f, err := c.fit(&in)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := buildInputs(split.Train, c, 400, in.scaler)
	if err != nil {
		t.Fatal(err)
	}
	tPred, hPred := f.env(c.input(ev.x, ev.xs))
	var maeT, maeH float64
	for i, r := range ev.recs {
		maeT += abs(r.Temp - tPred[i])
		maeH += abs(r.Humidity - hPred[i])
	}
	maeT /= float64(len(ev.recs))
	maeH /= float64(len(ev.recs))
	// In-sample: must clearly beat predicting the mean (std of T over a
	// day is several °C).
	if maeT > 2.5 {
		t.Fatalf("temperature MAE %g too high", maeT)
	}
	if maeH > 5 {
		t.Fatalf("humidity MAE %g too high", maeH)
	}
	empty, err := buildInputs(&dataset.Dataset{}, c, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.fit(&empty); err == nil {
		t.Fatal("empty training set must error")
	}
}

func TestThin(t *testing.T) {
	d := &dataset.Dataset{Records: make([]dataset.Record, 100)}
	for i := range d.Records {
		d.Records[i].Count = i
	}
	if got := d.Thin(0); got.Len() != 100 {
		t.Fatal("0 keeps all")
	}
	if got := d.Thin(200); got.Len() != 100 {
		t.Fatal("cap above size keeps all")
	}
	th := d.Thin(10)
	if th.Len() < 5 || th.Len() > 10 {
		t.Fatalf("thin length %d", th.Len())
	}
	// Strided: covers the whole range, preserves order.
	if th.Records[0].Count != 0 {
		t.Fatal("first record dropped")
	}
	if th.Records[th.Len()-1].Count < 50 {
		t.Fatal("tail regime dropped")
	}
}

func TestRunFootprint(t *testing.T) {
	_, split := testSplit(t)
	dcfg := quickDetectorCfg(dataset.FeatCSIEnv)
	dcfg.Hidden = PaperHidden
	dcfg.Train.Epochs = 1
	det, err := TrainDetector(split.Train.Thin(300), dcfg)
	if err != nil {
		t.Fatal(err)
	}
	fp := RunFootprint(det, 50)
	// 66→128→256→128→1: 8576+33024+32896+129 = 74625 params.
	if fp.Params != 74625 {
		t.Fatalf("params %d", fp.Params)
	}
	if fp.SizeBytes != fp.Params*4 {
		t.Fatal("float32 size")
	}
	if fp.SizeKiB < 200 || fp.SizeKiB > 400 {
		t.Fatalf("KiB %g out of expected range", fp.SizeKiB)
	}
	if fp.InferencePerSample <= 0 {
		t.Fatal("latency must be positive")
	}
}

func TestDefaultConfigsConsistent(t *testing.T) {
	d := DefaultDetectorConfig()
	if d.Features != dataset.FeatCSIEnv || len(d.Hidden) != 3 {
		t.Fatalf("detector defaults %+v", d)
	}
	if d.Train.Epochs != 10 || d.Train.LR != 5e-3 {
		t.Fatal("paper hyper-parameters changed")
	}
	x := DefaultExperimentConfig()
	if x.RF.NumTrees <= 0 {
		t.Fatal("experiment defaults")
	}
	// Paper architecture invariant: CSI-only net has the Table/§IV-B
	// parameter breakdown.
	net := nn.NewMLP(64, PaperHidden, 1, newTestRng())
	if net.NumParams() != 8320+33024+32896+129 {
		t.Fatalf("CSI MLP params %d", net.NumParams())
	}
}

// TestConfigsRejectNonFiniteTrainRates: every config that embeds an
// nn.TrainConfig refuses a NaN or infinite rate through its Validate, which
// TrainDetector and the experiment grids call before training.
func TestConfigsRejectNonFiniteTrainRates(t *testing.T) {
	for _, bad := range []struct {
		name string
		set  func(*nn.TrainConfig)
	}{
		{"LR NaN", func(c *nn.TrainConfig) { c.LR = math.NaN() }},
		{"LR +Inf", func(c *nn.TrainConfig) { c.LR = math.Inf(1) }},
		{"WeightDecay NaN", func(c *nn.TrainConfig) { c.WeightDecay = math.NaN() }},
	} {
		det := DefaultDetectorConfig()
		bad.set(&det.Train)
		exp := DefaultExperimentConfig()
		bad.set(&exp.NNTrain)
		for cfg, err := range map[string]error{
			"DetectorConfig":   det.Validate(),
			"ExperimentConfig": exp.Validate(),
		} {
			if err == nil {
				t.Errorf("%s with %s validated", cfg, bad.name)
			}
		}
	}
}

// TestExperimentConfigRefusesCheckpoint: the grid fits its cells
// concurrently, so a checkpoint path in NNTrain would have every network
// resume from and overwrite one file; Validate refuses it before any cell
// trains, while a detector, which is one fit, takes it.
func TestExperimentConfigRefusesCheckpoint(t *testing.T) {
	exp := DefaultExperimentConfig()
	exp.NNTrain.Checkpoint = filepath.Join(t.TempDir(), "grid.ckpt")
	if err := exp.Validate(); err == nil {
		t.Fatal("ExperimentConfig with a checkpoint validated")
	}
	_, split := testSplit(t)
	if _, err := RunTable4(split, exp); err == nil {
		t.Fatal("RunTable4 ran with a checkpoint")
	}
	det := DefaultDetectorConfig()
	det.Train.Checkpoint = exp.NNTrain.Checkpoint
	if err := det.Validate(); err != nil {
		t.Fatalf("DetectorConfig with a checkpoint refused: %v", err)
	}
}
