package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"reflect"
	"testing"

	"repro/internal/dataset"

	"repro/internal/cpukit"
)

// TestTrainDetectorWeightsGolden pins the bits of a trained detector: the
// paper's 66→128→256→128→1 MLP (every float64 matmul shape nn.Fit makes,
// the 66-wide k%4 tail and a 51-row last batch included), two seeded epochs,
// FNV-1a over every parameter in layer order. The float64 AVX2 kernels
// promise the scalar loops' bits (DESIGN.md §14), so this one constant must
// hold under both legs of the CI kernel-parity job — the auto-selected
// kernel and OCCU_KERNEL=generic — and it is the value the commit before the
// kernels existed produces. A change here means trained weights, checkpoints
// and every decision downstream of them moved.
func TestTrainDetectorWeightsGolden(t *testing.T) {
	const want = uint64(0x7fda486d087c1a78)
	_, split := testSplit(t)
	cfg := DefaultDetectorConfig()
	cfg.Train.Epochs = 2
	det, err := TrainDetector(split.Train.Thin(1000), cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var b [8]byte
	for _, p := range det.Net.Params() {
		for _, v := range p.Data {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	if got := h.Sum64(); got != want {
		t.Fatalf("trained-weights hash %#016x under kernel %s, want %#016x", got, cpukit.Active(), want)
	}
}

// shrink tightens the quick config further: the determinism tests run the
// full Table IV grid twice, and they only need enough data for every code
// path to execute, not for the accuracies to be meaningful.
func shrink(cfg ExperimentConfig) ExperimentConfig {
	cfg.NNTrain.Epochs = 2
	cfg.MaxTrainSamples = 600
	cfg.MaxEvalSamples = 150
	cfg.RF.NumTrees = 5
	cfg.RF.MaxDepth = 8
	return cfg
}

// TestRunTable4DeterministicAcrossWorkerCounts is the contract the parallel
// experiment engine makes: the grid result is bit-identical — not merely
// close — for any worker count, because every task derives its inputs from
// its index and the config seed, never from scheduling order.
func TestRunTable4DeterministicAcrossWorkerCounts(t *testing.T) {
	_, split := testSplit(t)
	base := shrink(quickCfg())

	var results []*Table4Result
	for _, w := range []int{1, 4} {
		cfg := base
		cfg.Workers = w
		res, err := RunTable4(split, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		results = append(results, res)
	}

	ref := results[0]
	for ri, res := range results[1:] {
		if len(res.Acc) != len(ref.Acc) {
			t.Fatalf("fold count differs: %d vs %d", len(res.Acc), len(ref.Acc))
		}
		for fi := range ref.Acc {
			for mi := range ref.Acc[fi] {
				for _, feat := range Table4Features {
					a, b := ref.Acc[fi][mi][feat], res.Acc[fi][mi][feat]
					if a != b {
						t.Errorf("run %d: Acc[%d][%s][%v] = %v, sequential %v",
							ri+1, fi, Table4Models[mi], feat, b, a)
					}
				}
			}
		}
		for mi := range ref.Avg {
			for _, feat := range Table4Features {
				if a, b := ref.Avg[mi][feat], res.Avg[mi][feat]; a != b {
					t.Errorf("run %d: Avg[%s][%v] = %v, sequential %v",
						ri+1, Table4Models[mi], feat, b, a)
				}
			}
		}
	}
}

// TestRunTable5DeterministicAcrossWorkerCounts covers the regression grid
// the same way: both regressors and all fold scores must agree exactly.
func TestRunTable5DeterministicAcrossWorkerCounts(t *testing.T) {
	_, split := testSplit(t)
	base := shrink(quickCfg())

	var results []*Table5Result
	for _, w := range []int{1, 4} {
		cfg := base
		cfg.Workers = w
		res, err := RunTable5(split, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		results = append(results, res)
	}

	ref, res := results[0], results[1]
	if len(res.Linear) != len(ref.Linear) || len(res.Neural) != len(ref.Neural) {
		t.Fatalf("fold counts differ")
	}
	for fi := range ref.Linear {
		if ref.Linear[fi] != res.Linear[fi] {
			t.Errorf("Linear[%d]: %+v vs %+v", fi, res.Linear[fi], ref.Linear[fi])
		}
		if ref.Neural[fi] != res.Neural[fi] {
			t.Errorf("Neural[%d]: %+v vs %+v", fi, res.Neural[fi], ref.Neural[fi])
		}
	}
	if ref.AvgLin != res.AvgLin || ref.AvgNN != res.AvgNN {
		t.Errorf("averages differ: %+v/%+v vs %+v/%+v", res.AvgLin, res.AvgNN, ref.AvgLin, ref.AvgNN)
	}
}

// TestAblationDeterministicAcrossWorkerCounts runs one grid holding every
// model kind and front end the experiments use — logistic regression,
// forests, MLPs and the CNN; raw, standardised, filtered, PCA and windowed
// inputs; occupancy, activity, count and T/H regression — on 1 and 3
// workers: every row must agree bit for bit.
func TestAblationDeterministicAcrossWorkerCounts(t *testing.T) {
	_, split := testSplit(t)
	base := shrink(quickCfg())

	cells := table4Cells(base)
	for _, dim := range []string{"std", "family", "preproc"} {
		_, cs, err := ablationCells(dim, base)
		if err != nil {
			t.Fatal(err)
		}
		cells = append(cells, cs...)
	}
	win := baseCell(base, mlp, dataset.FeatCSI, activity)
	win.window = 10
	ols := baseCell(base, linear, dataset.FeatCSI, envTH)
	ols.std = false
	cells = append(cells, win, ols,
		baseCell(base, forest, dataset.FeatCSI, activity),
		baseCell(base, mlp, dataset.FeatCSI, count),
		baseCell(base, forest, dataset.FeatCSI, count),
		baseCell(base, mlp, dataset.FeatCSI, envTH))

	var results [][]row
	for _, w := range []int{1, 3} {
		cfg := base
		cfg.Workers = w
		rows, err := runCells(split, cfg, cells)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		results = append(results, rows)
	}
	ref, res := results[0], results[1]
	for i, c := range cells {
		if !reflect.DeepEqual(ref[i].folds, res[i].folds) || !reflect.DeepEqual(ref[i].pooled, res[i].pooled) {
			t.Errorf("cell %d (%v): %+v/%+v vs %+v/%+v", i, c, res[i].folds, res[i].pooled, ref[i].folds, ref[i].pooled)
		}
		if ref[i].params != res[i].params {
			t.Errorf("cell %d (%v): %d params vs %d", i, c, res[i].params, ref[i].params)
		}
	}
}

// TestRunTable4QuickSanity guards the parallel rewrite's bookkeeping: every
// cell of the grid must be populated and within the accuracy range a real
// (if tiny) training run produces.
func TestRunTable4QuickSanity(t *testing.T) {
	_, split := testSplit(t)
	cfg := shrink(quickCfg())
	cfg.Workers = 2
	res, err := RunTable4(split, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Acc) != len(split.Folds) {
		t.Fatalf("got %d fold rows, want %d", len(res.Acc), len(split.Folds))
	}
	for fi := range res.Acc {
		for mi := range res.Acc[fi] {
			for _, feat := range Table4Features {
				acc, ok := res.Acc[fi][mi][feat]
				if !ok {
					t.Fatalf("missing Acc[%d][%s][%v]", fi, Table4Models[mi], feat)
				}
				if acc < 0 || acc > 100 {
					t.Errorf("Acc[%d][%s][%v] = %v out of range", fi, Table4Models[mi], feat, acc)
				}
			}
		}
	}
}
