// Command occutrain trains an occupancy detector on a CSV trace (csigen
// format) and evaluates it on a held-out temporal split, saving the model
// bundle for occupredict / deployment.
//
// Usage:
//
//	occutrain -data trace.csv [-features CSI|Env|C+E] [-model out.bin]
//	          [-epochs n] [-lr f] [-batch n] [-hidden 128,256,128] [-seed n]
//	          [-metrics-addr :9090]
//	occutrain -shadow-log-dir dir -shadow-from active.bin -model out.bin
//	          [-shadow-feeds a,b] [-shadow-max-frames n]
//	          [-checkpoint path] [-checkpoint-every n]
//	          [-epochs n] [-lr f] [-batch n] [-hidden 128,256,128] [-seed n]
//
// With -data "" a synthetic trace is generated on the fly. With
// -metrics-addr, training progress (train_* series) is served on /metrics
// alongside /debug/pprof/ for profiling slow epochs.
//
// The second form is shadow retraining (DESIGN.md §16): instead of a CSV,
// the candidate trains on the frames a serving node retained in its durable
// frame log (-log-dir on occuserve), pseudo-labeled by the active detector
// bundle given via -shadow-from. Training is checkpointed — rerunning with
// the same -checkpoint resumes into the bit-identical weight trajectory —
// and the resulting bundle is what POST /v1/models on a running server
// gates and installs for a zero-downtime hot-swap.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/obs"
)

func main() {
	var (
		data    = flag.String("data", "", "input CSV (empty: generate a 24 h synthetic trace)")
		featStr = flag.String("features", "C+E", "feature subset: CSI, Env or C+E")
		model   = flag.String("model", "detector.bin", "output model bundle path")
		epochs  = flag.Int("epochs", 10, "training epochs (paper: 10)")
		lr      = flag.Float64("lr", 5e-3, "learning rate (paper: 5e-3)")
		batch   = flag.Int("batch", 256, "mini-batch size")
		hidden  = flag.String("hidden", "128,256,128", "hidden layer widths")
		seed    = flag.Int64("seed", 1, "random seed")
		trainN  = flag.Int("train", 40000, "max training samples after thinning (0 = all)")
		metrics = flag.String("metrics-addr", "", "serve Prometheus /metrics and /debug/pprof on this address (empty disables)")

		shadowLogDir = flag.String("shadow-log-dir", "", "shadow mode: frame-log root to retrain from (occuserve -log-dir)")
		shadowFrom   = flag.String("shadow-from", "", "shadow mode: active detector bundle used as pseudo-labeler (required with -shadow-log-dir)")
		shadowFeeds  = flag.String("shadow-feeds", "", "shadow mode: comma-separated feed IDs to train on (empty: every logged feed)")
		shadowMax    = flag.Int("shadow-max-frames", 0, "shadow mode: cap on total training frames across feeds (0 = no cap)")
		checkpoint   = flag.String("checkpoint", "", "shadow mode: training checkpoint path (default <model>.ckpt)")
		ckptEvery    = flag.Int("checkpoint-every", 1, "shadow mode: epochs between checkpoints")
	)
	flag.Parse()

	if *shadowLogDir != "" {
		shadowMain(*shadowLogDir, *shadowFrom, *shadowFeeds, *shadowMax, *checkpoint, *ckptEvery,
			*model, *hidden, *epochs, *lr, *batch, *seed)
		return
	}
	if *shadowFrom != "" {
		fail(fmt.Errorf("occutrain: -shadow-from needs -shadow-log-dir"))
	}

	feat, err := parseFeatures(*featStr)
	fail(err)

	var observer obs.Observer
	if *metrics != "" {
		reg := obs.NewRegistry()
		srv, err := obs.StartServer(*metrics, reg)
		fail(err)
		defer srv.Close()
		fmt.Printf("occutrain: metrics at %s/metrics\n", srv.URL())
		observer = reg
	}

	var d *dataset.Dataset
	if *data == "" {
		fmt.Println("occutrain: no -data given; generating a 24 h synthetic trace")
		cfg := dataset.DefaultGenConfig(1, *seed)
		cfg.Duration = 24 * time.Hour
		d, err = dataset.Generate(cfg)
	} else {
		d, err = dataset.LoadCSV(*data)
	}
	fail(err)
	fmt.Printf("occutrain: %d records\n", d.Len())

	split, err := d.PaperSplit()
	fail(err)

	dcfg := core.DefaultDetectorConfig()
	dcfg.Features = feat
	dcfg.Hidden, err = parseHidden(*hidden)
	fail(err)
	dcfg.Train.Epochs = *epochs
	dcfg.Train.LR = *lr
	dcfg.Train.BatchSize = *batch
	dcfg.Train.Seed = *seed
	dcfg.Train.Observer = observer
	dcfg.Seed = *seed
	dcfg.Train.OnEpoch = func(e int, loss float64) {
		fmt.Printf("  epoch %2d  loss %.4f\n", e+1, loss)
	}

	train := split.Train.Thin(*trainN)

	t0 := time.Now()
	det, err := core.TrainDetector(train, dcfg)
	fail(err)
	fmt.Printf("occutrain: trained %v on %d samples in %.1fs\n", det.Net, train.Len(), time.Since(t0).Seconds())

	for i, fold := range split.Folds {
		cm := det.Evaluate(fold)
		fmt.Printf("  fold %d: acc %.2f%%  precision %.3f  recall %.3f  f1 %.3f\n",
			i+1, 100*cm.Accuracy(), cm.Precision(), cm.Recall(), cm.F1())
	}

	fail(det.SaveFile(*model))
	st, err := os.Stat(*model)
	fail(err)
	fmt.Printf("occutrain: saved %s (%.2f KiB)\n", *model, float64(st.Size())/1024)
}

// shadowMain is the -shadow-log-dir entry point: retrain a candidate from a
// serving node's frame logs, pseudo-labeled by the active bundle, and save
// it as an installable candidate (core.ShadowTrain; DESIGN.md §16).
func shadowMain(logDir, from, feeds string, maxFrames int, ckpt string, ckptEvery int,
	model, hidden string, epochs int, lr float64, batch int, seed int64) {
	if from == "" {
		fail(fmt.Errorf("occutrain: shadow mode needs -shadow-from (the active detector bundle)"))
	}
	active, err := core.LoadDetectorFile(from)
	fail(err)
	fmt.Printf("occutrain: shadow mode: pseudo-labeling with %s (%s features)\n", from, active.Features)

	if ckpt == "" {
		ckpt = model + ".ckpt"
	}
	cfg := core.ShadowTrainConfig{
		LogDir:          logDir,
		MaxFrames:       maxFrames,
		CheckpointPath:  ckpt,
		CheckpointEvery: ckptEvery,
	}
	if feeds != "" {
		for _, f := range strings.Split(feeds, ",") {
			if f = strings.TrimSpace(f); f != "" {
				cfg.Feeds = append(cfg.Feeds, f)
			}
		}
	}
	cfg.Detector = core.DefaultDetectorConfig()
	cfg.Detector.Hidden, err = parseHidden(hidden)
	fail(err)
	cfg.Detector.Train.Epochs = epochs
	cfg.Detector.Train.LR = lr
	cfg.Detector.Train.BatchSize = batch
	cfg.Detector.Train.Seed = seed
	cfg.Detector.Seed = seed
	cfg.Detector.Train.OnEpoch = func(e int, loss float64) {
		fmt.Printf("  epoch %2d  loss %.4f\n", e+1, loss)
	}

	t0 := time.Now()
	cand, frames, err := core.ShadowTrain(active, cfg)
	fail(err)
	fmt.Printf("occutrain: shadow-trained %v on %d logged frames in %.1fs (checkpoint %s)\n",
		cand.Net, frames, time.Since(t0).Seconds(), ckpt)

	fail(cand.SaveFile(model))
	st, err := os.Stat(model)
	fail(err)
	fmt.Printf("occutrain: saved candidate %s (%.2f KiB) — install it on a serving node via occupancy.Client.InstallModel\n",
		model, float64(st.Size())/1024)
}

func parseFeatures(s string) (dataset.FeatureSet, error) {
	switch strings.ToUpper(s) {
	case "CSI":
		return dataset.FeatCSI, nil
	case "ENV":
		return dataset.FeatEnv, nil
	case "C+E", "CSIENV", "CSI+ENV":
		return dataset.FeatCSIEnv, nil
	default:
		return 0, fmt.Errorf("occutrain: unknown feature set %q (want CSI, Env or C+E)", s)
	}
}

func parseHidden(s string) ([]int, error) {
	if s == "" {
		return nil, fmt.Errorf("occutrain: empty -hidden")
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("occutrain: bad hidden width %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
