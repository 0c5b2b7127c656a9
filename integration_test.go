package repro

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/xai"
)

// TestEndToEndWorkflow exercises the whole user-facing pipeline the way the
// README documents it: generate → persist to CSV → reload → split → train →
// save the model → reload it → stream predictions → explain.
func TestEndToEndWorkflow(t *testing.T) {
	dir := t.TempDir()

	// 1. Generate a 2-day trace and persist it (cmd/csigen's job).
	gcfg := dataset.DefaultGenConfig(1.0/12, 17) // one sample / 12 s
	gcfg.Start = time.Date(2022, 1, 5, 0, 0, 0, 0, time.UTC)
	gcfg.Duration = 48 * time.Hour
	d, err := dataset.Generate(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	csvPath := filepath.Join(dir, "trace.csv")
	csvFile, err := os.Create(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WriteCSV(csvFile); err != nil {
		t.Fatal(err)
	}
	if err := csvFile.Close(); err != nil {
		t.Fatal(err)
	}

	// 2. Reload and verify integrity.
	back, err := dataset.LoadCSV(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != d.Len() {
		t.Fatalf("CSV roundtrip lost records: %d vs %d", back.Len(), d.Len())
	}

	// 3. Temporal split and training (cmd/occutrain's job).
	split, err := back.SplitFolds(0.7, 2)
	if err != nil {
		t.Fatal(err)
	}
	dcfg := core.DefaultDetectorConfig()
	dcfg.Hidden = []int{48, 24}
	dcfg.Train.Epochs = 8
	det, err := core.TrainDetector(split.Train, dcfg)
	if err != nil {
		t.Fatal(err)
	}

	// 4. Persist and reload the model bundle.
	modelPath := filepath.Join(dir, "detector.bin")
	if err := det.SaveFile(modelPath); err != nil {
		t.Fatal(err)
	}
	loaded, err := core.LoadDetectorFile(modelPath)
	if err != nil {
		t.Fatal(err)
	}

	// 5. Evaluate the reloaded model on held-out folds; it must clearly
	//    beat chance on the mixed evening fold.
	anyInformative := false
	for _, fold := range split.Folds {
		cm := loaded.Evaluate(fold)
		if cm.Total() == 0 {
			t.Fatal("empty fold")
		}
		if cm.Accuracy() > 0.8 && cm.TP+cm.FN > 0 && cm.TN+cm.FP > 0 {
			anyInformative = true
		}
	}
	if !anyInformative {
		t.Fatal("no held-out fold with both classes was classified well")
	}

	// 6. Stream single-record predictions (cmd/occupredict's job) and
	//    check batch/stream consistency.
	fold := split.Folds[0]
	x, _ := fold.Matrix(loaded.Features)
	batch := loaded.Net.PredictProbs(loaded.Scaler.Transform(x))
	for i := 0; i < fold.Len(); i += 100 {
		p, _ := loaded.PredictRecord(&fold.Records[i])
		if math.Abs(p-batch[i]) > 1e-9 {
			t.Fatalf("stream/batch divergence at %d: %g vs %g", i, p, batch[i])
		}
	}

	// 7. Explain the decisions (experiments -only figure3's job).
	xs := loaded.Scaler.Transform(x)
	cam, err := xai.GradCAM(loaded.Net, xs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(cam.InputImportance) != 66 {
		t.Fatal("explanation width")
	}
	if cam.MassFraction(0, 64)+cam.MassFraction(64, 66) < 0.999 {
		t.Fatal("attribution mass must decompose")
	}

	// 8. The model file is small enough for the §IV-B deployment story.
	st, err := os.Stat(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() > 1<<20 {
		t.Fatalf("model bundle implausibly large: %d bytes", st.Size())
	}
}

// TestSeedReproducibility verifies the repository's determinism contract:
// identical seeds give byte-identical datasets and identical trained-model
// decisions end to end.
func TestSeedReproducibility(t *testing.T) {
	run := func() (*bytes.Buffer, []int) {
		gcfg := dataset.DefaultGenConfig(1.0/60, 23)
		gcfg.Duration = 24 * time.Hour
		d, err := dataset.Generate(gcfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := d.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		split, err := d.SplitFolds(0.7, 1)
		if err != nil {
			t.Fatal(err)
		}
		dcfg := core.DefaultDetectorConfig()
		dcfg.Hidden = []int{16}
		dcfg.Train.Epochs = 3
		det, err := core.TrainDetector(split.Train, dcfg)
		if err != nil {
			t.Fatal(err)
		}
		x, _ := split.Folds[0].Matrix(det.Features)
		return &buf, det.Net.PredictBinary(det.Scaler.Transform(x))
	}
	csv1, pred1 := run()
	csv2, pred2 := run()
	if !bytes.Equal(csv1.Bytes(), csv2.Bytes()) {
		t.Fatal("dataset generation is not reproducible")
	}
	for i := range pred1 {
		if pred1[i] != pred2[i] {
			t.Fatal("training is not reproducible")
		}
	}
}

// TestCrossModelAgreementOnEasySamples checks the three model families
// agree on unambiguous samples (deep night, fully staffed midday) — an
// integration-level consistency check across internal/linmodel, internal/rf
// and internal/nn.
func TestCrossModelAgreementOnEasySamples(t *testing.T) {
	gcfg := dataset.DefaultGenConfig(1.0/30, 29)
	gcfg.Start = time.Date(2022, 1, 5, 0, 0, 0, 0, time.UTC)
	gcfg.Duration = 36 * time.Hour
	d, err := dataset.Generate(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	split, err := d.SplitFolds(0.7, 1)
	if err != nil {
		t.Fatal(err)
	}
	ecfg := core.DefaultExperimentConfig()
	ecfg.Hidden = []int{32, 16}
	ecfg.NNTrain.Epochs = 8
	ecfg.MaxTrainSamples = 2500
	ecfg.RF.NumTrees = 10
	res, err := core.RunTable4(&dataset.Split{Train: split.Train, Folds: split.Folds}, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	// On the CSI feature set, RF and MLP must both be decisively above
	// chance on the held-out window.
	if res.Acc[0][1][dataset.FeatCSI] < 60 || res.Acc[0][2][dataset.FeatCSI] < 60 {
		t.Fatalf("non-linear models below 60%%: RF=%g MLP=%g",
			res.Acc[0][1][dataset.FeatCSI], res.Acc[0][2][dataset.FeatCSI])
	}
}

// TestOnlineTrainingIntegration drives the §V-B online-training deployment
// mode through the public API: a detector improves on a new day's data via
// incremental updates without full retraining.
func TestOnlineTrainingIntegration(t *testing.T) {
	gcfg := dataset.DefaultGenConfig(1.0/30, 37)
	gcfg.Start = time.Date(2022, 1, 5, 0, 0, 0, 0, time.UTC)
	gcfg.Duration = 24 * time.Hour
	day1, err := dataset.Generate(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	dcfg := core.DefaultDetectorConfig()
	dcfg.Features = dataset.FeatCSI
	dcfg.Hidden = []int{32, 16}
	dcfg.Train.Epochs = 4
	det, err := core.TrainDetector(day1, dcfg)
	if err != nil {
		t.Fatal(err)
	}

	// A new day with a different seed (different occupant behaviour).
	gcfg2 := gcfg
	gcfg2.Seed = 38
	gcfg2.Agents.Seed = 39
	gcfg2.CSI.Seed = 40
	day2, err := dataset.Generate(gcfg2)
	if err != nil {
		t.Fatal(err)
	}
	beforeCM := det.Evaluate(day2)
	before := beforeCM.Accuracy()

	// Online updates over day 2 in 128-sample batches.
	opt := nn.NewAdamW(1e-3, 0)
	x, yi := day2.Matrix(det.Features)
	xs := det.Scaler.Transform(x)
	for start := 0; start+128 <= xs.Rows; start += 128 {
		xb := sliceRows(xs, start, start+128)
		yb := sliceLabels(yi, start, start+128)
		det.Net.FitOnline(xb, yb, nn.BCEWithLogits{}, opt, 5)
	}
	afterCM := det.Evaluate(day2)
	after := afterCM.Accuracy()
	if after < before-0.02 {
		t.Fatalf("online training hurt in-domain accuracy: %.3f → %.3f", before, after)
	}
}

func sliceRows(x *tensor.Matrix, lo, hi int) *tensor.Matrix {
	return tensor.FromSlice(hi-lo, x.Cols, x.Data[lo*x.Cols:hi*x.Cols])
}

func sliceLabels(y []int, lo, hi int) *tensor.Matrix {
	out := tensor.NewMatrix(hi-lo, 1)
	for i := lo; i < hi; i++ {
		out.Set(i-lo, 0, float64(y[i]))
	}
	return out
}
