// Command occutrain trains an occupancy detector and saves the model bundle
// for occupredict / deployment. There is one training path,
// core.TrainDetector; only the data differs:
//
//	occutrain [-data trace.csv] [-features CSI|Env|C+E] [-train n]
//	          [-model out.bin] [-epochs n] [-lr f] [-batch n]
//	          [-hidden 128,256,128] [-seed n] [-checkpoint path]
//	          [-metrics-addr :9090]
//	occutrain -shadow-log-dir dir -shadow-from active.bin [-model out.bin]
//	          [-shadow-feeds a,b] [-shadow-max-frames n]
//	          [-epochs n] [-lr f] [-batch n] [-hidden 128,256,128] [-seed n]
//	          [-checkpoint path] [-metrics-addr :9090]
//
// The first form trains on the paper split's training fold of a CSV trace
// (csigen format; with -data "" a synthetic 24 h trace is generated on the
// fly), thinned to -train samples, and evaluates the held-out folds.
//
// The second form is shadow retraining (DESIGN.md §16): the candidate
// trains on the frames a serving node retained in its durable frame log
// (-log-dir on occuserve), pseudo-labeled by the active detector bundle
// given via -shadow-from, whose feature set it keeps; -data, -features and
// -train are refused. The resulting bundle is what POST /v1/models on a
// running server gates and installs for a zero-downtime hot-swap.
//
// With -checkpoint (in shadow mode it defaults to <model>.ckpt) training
// saves a checkpoint after every epoch, and rerunning the same command
// resumes into the bit-identical weight trajectory; a checkpoint left by
// a run on other data or settings is refused, not resumed. With
// -metrics-addr, training progress (train_* series) is served on /metrics
// alongside /debug/pprof/ for profiling slow epochs.
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
		ckpt    = flag.String("checkpoint", "", "training checkpoint to resume from and save to (empty: none; shadow mode: <model>.ckpt)")
		metrics = flag.String("metrics-addr", "", "serve Prometheus /metrics and /debug/pprof on this address (empty disables)")

		shadowLogDir = flag.String("shadow-log-dir", "", "shadow mode: frame-log root to retrain from (occuserve -log-dir)")
		shadowFrom   = flag.String("shadow-from", "", "shadow mode: active detector bundle used as pseudo-labeler (required with -shadow-log-dir)")
		shadowFeeds  = flag.String("shadow-feeds", "", "shadow mode: comma-separated feed IDs to train on (empty: every logged feed)")
		shadowMax    = flag.Int("shadow-max-frames", 0, "shadow mode: cap on total training frames across feeds (0 = no cap)")
	)
	flag.Parse()
	shadow := *shadowLogDir != ""
	fail(checkModeFlags(flag.CommandLine, shadow))

	dcfg := core.DefaultDetectorConfig()
	var err error
	dcfg.Hidden, err = parseHidden(*hidden)
	fail(err)
	dcfg.Train.Epochs = *epochs
	dcfg.Train.LR = *lr
	dcfg.Train.BatchSize = *batch
	dcfg.Train.Seed = *seed
	dcfg.Train.Checkpoint = *ckpt
	dcfg.Seed = *seed
	dcfg.Train.OnEpoch = func(e int, loss float64) {
		fmt.Printf("  epoch %2d  loss %.4f\n", e+1, loss)
	}
	if *metrics != "" {
		reg := obs.NewRegistry()
		srv, err := obs.StartServer(*metrics, reg)
		fail(err)
		defer srv.Close()
		fmt.Printf("occutrain: metrics at %s/metrics\n", srv.URL())
		dcfg.Train.Observer = reg
	}

	var train *dataset.Dataset
	var folds []*dataset.Dataset
	if shadow {
		if *shadowFrom == "" {
			fail(fmt.Errorf("occutrain: shadow mode needs -shadow-from (the active detector bundle)"))
		}
		active, err := core.LoadDetectorFile(*shadowFrom)
		fail(err)
		fmt.Printf("occutrain: shadow mode: pseudo-labeling with %s (%s features)\n", *shadowFrom, active.Features)
		dcfg.Features = active.Features
		if dcfg.Train.Checkpoint == "" {
			dcfg.Train.Checkpoint = *model + ".ckpt"
		}
		train, err = core.PseudoLabel(active, *shadowLogDir, splitList(*shadowFeeds), *shadowMax)
		fail(err)
		fmt.Printf("occutrain: %d logged frames\n", train.Len())
	} else {
		dcfg.Features, err = parseFeatures(*featStr)
		fail(err)
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
		train, folds = split.Train.Thin(*trainN), split.Folds
	}

	t0 := time.Now()
	det, err := core.TrainDetector(train, dcfg)
	fail(err)
	fmt.Printf("occutrain: trained %v on %d samples in %.1fs\n", det.Net, train.Len(), time.Since(t0).Seconds())
	if dcfg.Train.Checkpoint != "" {
		fmt.Printf("occutrain: checkpoint %s\n", dcfg.Train.Checkpoint)
	}

	for i, fold := range folds {
		cm := det.Evaluate(fold)
		fmt.Printf("  fold %d: acc %.2f%%  precision %.3f  recall %.3f  f1 %.3f\n",
			i+1, 100*cm.Accuracy(), cm.Precision(), cm.Recall(), cm.F1())
	}

	fail(det.SaveFile(*model))
	st, err := os.Stat(*model)
	fail(err)
	fmt.Printf("occutrain: saved %s (%.2f KiB)\n", *model, float64(st.Size())/1024)
	if shadow {
		fmt.Println("occutrain: install the candidate on a serving node via occupancy.Client.InstallModel")
	}
}

// dataFlags pick the training data outside shadow mode; shadowFlags only
// mean something in it.
var (
	dataFlags   = []string{"data", "features", "train"}
	shadowFlags = []string{"shadow-from", "shadow-feeds", "shadow-max-frames"}
)

// checkModeFlags refuses an explicitly set flag the chosen mode would
// otherwise ignore: shadow mode trains on logged frames with the active
// bundle's features, and the shadow flags need -shadow-log-dir.
func checkModeFlags(fs *flag.FlagSet, shadow bool) error {
	ignored, why := shadowFlags, "needs -shadow-log-dir"
	if shadow {
		ignored, why = dataFlags, "does not apply in shadow mode (the frame log is the data, the active bundle's features are kept)"
	}
	var err error
	fs.Visit(func(f *flag.Flag) {
		for _, name := range ignored {
			if f.Name == name && err == nil {
				err = fmt.Errorf("occutrain: -%s %s", name, why)
			}
		}
	})
	return err
}

// splitList parses a comma-separated list, dropping empty entries.
func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
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
