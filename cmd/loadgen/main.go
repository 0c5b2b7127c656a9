// Command loadgen measures serving throughput of the inference engine
// against the direct per-record path, under a fleet of concurrent sensor
// feeds sharing one trained detector — the deployment shape §IV-B's
// "lightweight model on commodity hardware" argument implies but the paper
// never benchmarks.
//
// It trains (or loads) a detector, replays a bank of records from -feeds
// concurrent goroutines through both paths, and reports records/sec and the
// speedup. With -verify it first checks every engine prediction bit-for-bit
// against Detector.PredictRecord, which must hold for any -workers and any
// number of feeds (DESIGN.md §9).
//
// Usage:
//
//	loadgen [-feeds n] [-per-feed n] [-workers n]
//	        [-model detector.bin] [-epochs n] [-seed n] [-verify]
//	        [-precision f64|f32|int8] [-metrics-addr :9090] [-crash]
//	        [-http [-target url] [-cluster n [-drain-node id]]]
//
// -http drives the network serving layer through the typed occupancy.Client
// instead of in-process calls; with an empty -target it boots the server
// itself and requires every streamed decision to match a local replay bit
// for bit.
//
// -cluster (with -http) switches to the sharded-cluster harness: it boots n
// in-process nodes behind one shard map (or, with -target, drives a running
// occuserve cluster and takes membership from its map), streams every feed
// at its owning node, and mid-run drains one node out of the cluster —
// installing the epoch+1 map, pulling the drained node's sealed feed logs,
// and handing each moved feed's history to its new owner. The run fails if
// any acknowledged frame is missing from a log, or if any decision —
// before, across, or after the drain — differs by one bit from a
// single-node replay of the same frames (DESIGN.md §15). External nodes
// must serve with durability on and a stream buffer covering -per-feed.
//
// -crash switches to the durability harness: a child server process (this
// binary re-exec'd) serves with a durable frame log, gets SIGKILLed once
// half the planned frames are acknowledged, and is restarted from the log
// alone. The run fails if any acknowledged frame is missing from the log,
// if the recovered decision state differs by one bit from a local replay,
// or if any post-recovery decision diverges from the uninterrupted
// reference (DESIGN.md §13).
//
// -precision selects the engine's scorer arithmetic. At f32/int8, -verify
// switches from the bit-identity check to the bounded-divergence harness
// (core.RunDivergence): the sweep fails if any probability drifts past the
// precision's bound or any 0.5-threshold decision flips, and the engine
// path must still match the direct reduced-precision path bit for bit.
//
// With -metrics-addr the engine's infer_* series (request counters, arena
// utilisation) are live on /metrics while the load runs, and
// /debug/pprof/profile captures the hot path under real load.
//
// The engine's win over the direct path is allocation and the fused row
// kernel, not parallelism: both paths run on the feeds' own goroutines, the
// engine with zero steady-state garbage.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/cpukit"
	"repro/internal/dataset"
	"repro/internal/infer"
	"repro/internal/obs"
)

func main() {
	var (
		feeds   = flag.Int("feeds", 64, "concurrent feed goroutines")
		perFeed = flag.Int("per-feed", 2000, "records each feed submits")
		workers = flag.Int("workers", 0, "engine arenas, i.e. concurrent scores (0 = one per core)")
		model   = flag.String("model", "", "detector bundle (empty: train on the fly)")
		epochs  = flag.Int("epochs", 2, "training epochs when no -model is given")
		seed    = flag.Int64("seed", 11, "dataset seed")
		verify  = flag.Bool("verify", false, "first check engine output against the direct path: bit-identical at f64, bounded divergence at f32/int8")
		prec    = flag.String("precision", "f64", "inference arithmetic: f64 (bit-exact reference), f32 (fast) or int8 (small)")
		metrics = flag.String("metrics-addr", "", "serve Prometheus /metrics and /debug/pprof on this address (empty disables)")
		httpRun = flag.Bool("http", false, "drive the network serving layer over HTTP instead of in-process calls")
		target  = flag.String("target", "", "with -http: URL of a running occuserve (empty: boot an in-process server and verify decisions)")

		clusterN  = flag.Int("cluster", 0, "with -http: drive a sharded cluster with a mid-run drain — boot this many in-process nodes, or with -target take membership from the external cluster's shard map")
		drainNode = flag.String("drain-node", "", "with -cluster: node ID to drain mid-run (empty: the last node in the shard map)")

		swap = flag.Bool("swap", false, "hot-swap gate: shadow-train a candidate from the server's frame logs, install and atomically activate it mid-run, and require zero frame loss plus bit-identical old/new decision segments (DESIGN.md §16)")

		crash       = flag.Bool("crash", false, "SIGKILL a durable child server mid-stream, restart it, and require bit-identical recovered decisions (DESIGN.md §13)")
		crashChild  = flag.Bool("crash-child", false, "internal: run as the durable server child for -crash")
		crashLogDir = flag.String("crash-log-dir", "", "internal: frame log root for -crash-child")
	)
	flag.Parse()
	if *crashChild {
		runCrashChild(*model, *crashLogDir)
		return
	}
	if *feeds < 1 || *perFeed < 1 || *workers < 0 || *epochs < 1 {
		fail(fmt.Errorf("flags out of range: -feeds %d -per-feed %d -workers %d -epochs %d",
			*feeds, *perFeed, *workers, *epochs))
	}
	if (*clusterN > 0 || *drainNode != "") && !*httpRun {
		fail(fmt.Errorf("-cluster/-drain-node require -http"))
	}

	// Fail before training if OCCU_KERNEL asked for a kernel this CPU
	// cannot run — every throughput number below is kernel-specific.
	fail(cpukit.SelectionError())
	fmt.Printf("loadgen: compute kernel %s\n", cpukit.Describe())

	det, recs := buildFixture(*model, *seed, *epochs)
	fmt.Printf("loadgen: %d feeds × %d records, %d cores, net %v, bank %d records\n",
		*feeds, *perFeed, runtime.NumCPU(), det.Net, len(recs))

	if *crash {
		runCrashMode(det, recs, *perFeed, *model)
		return
	}
	if *swap {
		runSwapMode(det, recs, *feeds, *perFeed, *epochs, *seed)
		return
	}

	// With -metrics-addr the registry is a live Prometheus endpoint while
	// the load runs.
	reg := obs.NewRegistry()
	var observer obs.Observer = reg
	if *metrics != "" {
		srv, err := obs.StartServer(*metrics, reg)
		fail(err)
		defer srv.Close()
		fmt.Printf("loadgen: metrics at %s/metrics\n", srv.URL())
	}

	if *httpRun {
		if *clusterN > 0 {
			runClusterMode(det, recs, *feeds, *perFeed, *workers, *clusterN, *drainNode, *target, reg)
		} else {
			runHTTPMode(det, recs, *feeds, *perFeed, *workers, *target, reg)
		}
		return
	}

	scfg := core.ServeConfig{Workers: *workers, Precision: *prec, Observer: observer}
	fail(scfg.Validate())

	if *verify {
		if p, _ := infer.ParsePrecision(*prec); p == infer.PrecisionF64 {
			verifyBitIdentical(det, recs, scfg)
		} else {
			verifyBoundedDivergence(det, recs, scfg, string(p))
		}
	}

	// Direct path: every feed calls Detector.PredictRecord, which extracts,
	// standardises and runs one full allocating forward per record.
	directRate := run(*feeds, *perFeed, recs, det.PredictRecord)
	fmt.Printf("loadgen: direct  %10.0f records/sec\n", directRate)

	// Engine path: same feeds, same records, scored on the same goroutines
	// through the engine's preallocated arenas.
	de, err := core.NewDetectorEngine(det, scfg)
	fail(err)
	engineRate := run(*feeds, *perFeed, recs, de.PredictRecord)
	de.Close()
	fmt.Printf("loadgen: engine  %10.0f records/sec   (%.2fx)\n", engineRate, engineRate/directRate)
}

// buildFixture loads or trains the detector and assembles the record bank.
func buildFixture(model string, seed int64, epochs int) (*core.Detector, []dataset.Record) {
	gcfg := dataset.DefaultGenConfig(0.5, seed)
	gcfg.Duration = 24 * time.Hour
	d, err := dataset.Generate(gcfg)
	fail(err)
	var det *core.Detector
	if model != "" {
		det, err = core.LoadDetectorFile(model)
		fail(err)
	} else {
		fmt.Printf("loadgen: training paper MLP (%d epochs) on a synthetic day...\n", epochs)
		dcfg := core.DefaultDetectorConfig()
		dcfg.Train.Epochs = epochs
		det, err = core.TrainDetector(d, dcfg)
		fail(err)
	}
	recs := d.Records
	if len(recs) > 4096 {
		recs = recs[:4096]
	}
	return det, recs
}

// run replays the bank from feeds goroutines through predict and returns the
// aggregate records/sec. Each feed walks the bank from a distinct offset so
// concurrent requests are not lock-step identical.
func run(feeds, perFeed int, recs []dataset.Record, predict func(*dataset.Record) (float64, int)) float64 {
	var wg sync.WaitGroup
	start := time.Now()
	for f := 0; f < feeds; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			for k := 0; k < perFeed; k++ {
				i := (f*131 + k) % len(recs)
				predict(&recs[i])
			}
		}(f)
	}
	wg.Wait()
	return float64(feeds*perFeed) / time.Since(start).Seconds()
}

// verifyBitIdentical replays every bank record through a fresh engine and
// requires exact equality with the direct path.
func verifyBitIdentical(det *core.Detector, recs []dataset.Record, scfg core.ServeConfig) {
	de, err := core.NewDetectorEngine(det, scfg)
	fail(err)
	defer de.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for f := 0; f < 8; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			for k := 0; k < len(recs); k++ {
				i := (f*53 + k) % len(recs)
				wantP, wantL := det.PredictRecord(&recs[i])
				p, l := de.PredictRecord(&recs[i])
				if p != wantP || l != wantL {
					select {
					case errs <- fmt.Errorf("record %d: engine (%v,%d) != direct (%v,%d)", i, p, l, wantP, wantL):
					default:
					}
					return
				}
			}
		}(f)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		fail(fmt.Errorf("verify: %w", err))
	}
	fmt.Printf("loadgen: verify: %d records × 8 feeds bit-identical to the direct path\n", len(recs))
}

// verifyBoundedDivergence is the reduced-precision counterpart of
// verifyBitIdentical: it sweeps the record bank through the divergence
// harness (reduced scorer vs the f64 reference) and additionally replays
// the bank through a live reduced-precision engine to confirm the engine
// path scores each record identically to the harness's direct reduced path
// — i.e. concurrency still changes nothing, only the declared precision does.
func verifyBoundedDivergence(det *core.Detector, recs []dataset.Record, scfg core.ServeConfig, precision string) {
	res, err := core.RunDivergence(det, recs, core.DivergenceConfig{Precision: precision})
	fail(err)
	fmt.Printf("loadgen: verify: divergence %s\n", res)
	if !res.Pass {
		fail(fmt.Errorf("verify: %s divergence out of bounds", precision))
	}

	// Engine vs direct reduced path: must be bit-identical (the determinism
	// contract is per-precision, not f64-only).
	newScorer, err := infer.NetworkScorerAt(det.Net, infer.Precision(precision))
	fail(err)
	direct := newScorer()
	de, err := core.NewDetectorEngine(det, scfg)
	fail(err)
	defer de.Close()
	row := make([]float64, det.Features.Dim())
	for i := range recs {
		dataset.FeatureRowInto(row, &recs[i], det.Features)
		det.Scaler.TransformRow(row)
		want := direct.ScoreRow(row)
		p, _ := de.PredictRecord(&recs[i])
		if p != want {
			fail(fmt.Errorf("verify: record %d: %s engine %v != direct %s path %v", i, precision, p, precision, want))
		}
	}
	fmt.Printf("loadgen: verify: %d records: %s engine bit-identical to the direct %s path\n", len(recs), precision, precision)
}

// atExit holds cleanups fail must run before exiting — notably killing the
// -crash child processes, which would otherwise outlive a failed run and
// hold the pipeline's stderr open forever.
var atExit []func()

func fail(err error) {
	if err != nil {
		for _, f := range atExit {
			f()
		}
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}
