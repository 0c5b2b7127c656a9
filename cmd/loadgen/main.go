// Command loadgen is the load harness that gates the serving stack: it
// drives a fleet of concurrent sensor feeds at an occupancy server through
// the typed occupancy.Client — one room's 64-subcarrier frame at a time, the
// deployment shape §IV-B's "lightweight model on commodity hardware" argument
// implies — and fails unless every decision streamed back is bit-identical
// to an offline replay of the same frames through one stream.Runtime.
//
// Usage:
//
//	loadgen [-feeds n] [-per-feed n] [-model detector.bin] [-epochs n] [-seed n]
//	        [-target url] [-cluster n [-drain-node id]] [-swap] [-crash]
//
// With no mode flag it is the wire gate: it boots an in-process server (the
// stack cmd/occuserve runs), streams -per-feed frames on each of -feeds
// feeds, and compares every streamed decision with the replay. With -target
// it drives a running occuserve instead and verifies it the same way against
// the bundle the target serves on /v1/models; an external target must serve
// at f64 (the only precision whose decisions are bit-identical to the
// replay) with a stream buffer of at least -per-feed, so that no event can
// be dropped on a slow subscriber.
//
// -cluster drains one node out of a sharded cluster mid-run and moves each
// of its feeds to its new owner as its log directory — sealed segments and
// snapshot, opened there as a restart would open them — timing the hand-off
// and counting the bytes moved (in-process nodes, or with -target a running
// cluster, whose nodes must also serve with durability on);
// -swap installs and atomically activates a shadow-trained candidate
// mid-run; -crash SIGKILLs a durable child server mid-stream, restarts it
// from its frame log, then drains it and restarts it once more from its
// snapshot alone. Each fails on any lost acknowledged frame and on any
// decision that differs by one bit from the single-runtime replay; the
// comment at the top of cluster.go, swap.go and crash.go states the gate's
// contract in full (DESIGN.md §15, §16, §13).
//
// Every in-process node serves /metrics and /debug/pprof at the address the
// run prints, so a profile of the hot path under load is one curl away.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/cpukit"
	"repro/internal/dataset"
	"repro/pkg/occupancy"
)

func main() {
	var (
		feeds   = flag.Int("feeds", 64, "concurrent feeds")
		perFeed = flag.Int("per-feed", 2000, "frames each feed sends")
		model   = flag.String("model", "", "detector bundle (empty: train on the fly)")
		epochs  = flag.Int("epochs", 2, "training epochs when no -model is given")
		seed    = flag.Int64("seed", 11, "dataset seed")
		target  = flag.String("target", "", "URL of a running occuserve serving at f64 with -stream-buffer >= -per-feed (empty: boot the server in-process)")

		clusterN  = flag.Int("cluster", 0, "drive a sharded cluster with a mid-run drain — boot this many in-process nodes, or with -target take membership from the external cluster's shard map")
		drainNode = flag.String("drain-node", "", "with -cluster: node ID to drain mid-run (empty: the last node in the shard map)")

		swap = flag.Bool("swap", false, "hot-swap gate: shadow-train a candidate from the server's frame logs, install and atomically activate it mid-run, and require zero frame loss plus bit-identical old/new decision segments (DESIGN.md §16)")

		crash       = flag.Bool("crash", false, "SIGKILL a durable child server mid-stream, restart it, drain it, restart it again, and require bit-identical recovered decisions (DESIGN.md §13)")
		crashChild  = flag.Bool("crash-child", false, "internal: run as the durable server child for -crash")
		crashLogDir = flag.String("crash-log-dir", "", "internal: frame log root for -crash-child")
	)
	flag.Parse()
	if *crashChild {
		fail(runCrashChild(*model, *crashLogDir))
		return
	}
	if *feeds < 1 || *perFeed < 2 || *epochs < 1 {
		fail(fmt.Errorf("flags out of range: -feeds %d (min 1) -per-feed %d (min 2) -epochs %d (min 1)",
			*feeds, *perFeed, *epochs))
	}
	if *drainNode != "" && *clusterN == 0 {
		fail(fmt.Errorf("-drain-node requires -cluster"))
	}

	// Fail before training if OCCU_KERNEL asked for a kernel this CPU
	// cannot run — silently serving on generic would defeat the override.
	fail(cpukit.SelectionError())
	fmt.Printf("loadgen: compute kernel %s\n", cpukit.Describe())

	gcfg := dataset.DefaultGenConfig(0.5, *seed)
	gcfg.Duration = 24 * time.Hour
	day, err := dataset.Generate(gcfg)
	fail(err)
	fx := fixture{recs: day.Records[:min(len(day.Records), 4096)]}
	if *target == "" || *crash || *swap {
		// An external target serves its own bundle; only in-process nodes
		// (all -crash and -swap ever use) need one from here.
		fx.bundle, err = detectorBundle(*model, day, *epochs)
		fail(err)
	}
	fmt.Printf("loadgen: %d feeds × %d frames, %d cores, bank %d records\n",
		*feeds, *perFeed, runtime.NumCPU(), len(fx.recs))

	ctx := context.Background()
	switch {
	case *crash:
		fail(runCrash(ctx, fx, *perFeed))
	case *swap:
		fail(runSwap(ctx, fx, *feeds, *perFeed, *epochs, *seed))
	case *clusterN > 0:
		fail(runCluster(ctx, fx, *feeds, *perFeed, *clusterN, *drainNode, *target))
	default:
		fail(runWire(ctx, fx, *feeds, *perFeed, *target))
	}
}

// fixture is what every mode starts from: the detector bundle in-process
// nodes boot from, and the record bank feeds draw their frames from.
type fixture struct {
	bundle []byte
	recs   []dataset.Record
}

// detectorBundle loads the bundle at path, or with no path trains the paper
// MLP on the generated day and saves it.
func detectorBundle(path string, day *dataset.Dataset, epochs int) ([]byte, error) {
	if path != "" {
		return os.ReadFile(path)
	}
	fmt.Printf("loadgen: training paper MLP (%d epochs) on a synthetic day...\n", epochs)
	dcfg := core.DefaultDetectorConfig()
	dcfg.Train.Epochs = epochs
	det, err := core.TrainDetector(day, dcfg)
	if err != nil {
		return nil, err
	}
	var bundle bytes.Buffer
	if err := det.Save(&bundle); err != nil {
		return nil, err
	}
	return bundle.Bytes(), nil
}

// runWire is the wire gate: every feed streams its frames at one server —
// in-process unless target names a running one — and every decision streamed
// back must match the offline replay.
func runWire(ctx context.Context, fx fixture, feeds, perFeed int, target string) error {
	var local *node
	if target == "" {
		// A subscriber buffer covering the whole run makes "no events
		// dropped" a hard guarantee, so a short stream is the server's
		// fault, not the harness's.
		n, err := bootNode(fx.bundle, occupancy.ServeConfig{StreamBuffer: perFeed})
		if err != nil {
			return err
		}
		defer n.stop()
		local, target = n, n.url
		fmt.Printf("loadgen: in-process server at %s\n", target)
	}
	cl, err := newLoadClient(target, feeds)
	if err != nil {
		return err
	}
	ref, err := activeSpan(ctx, cl)
	if err != nil {
		return err
	}
	fmt.Printf("loadgen: verifying against the target's active bundle %.12s…\n", ref.version)

	start := time.Now()
	err = eachFeed(feeds, func(f int) error {
		run, err := openFeed(ctx, cl, fmt.Sprintf("feed-%03d", f), f, fx.recs)
		if err != nil {
			return err
		}
		if err := run.send(ctx, 0, perFeed); err != nil {
			return err
		}
		events, err := run.close(ctx)
		if err != nil {
			return err
		}
		return run.verify(events, 0, perFeed, []span{ref})
	})
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	if local != nil {
		if err := noFeedsLeft(ctx, cl, "the server"); err != nil {
			return err
		}
		if err := local.stop(); err != nil {
			return fmt.Errorf("server shutdown: %w", err)
		}
	}
	fmt.Printf("loadgen: wire    %10.0f frames/sec   (%d feeds, %d frames, %v)\n",
		float64(feeds*perFeed)/elapsed.Seconds(), feeds, feeds*perFeed, elapsed.Round(time.Millisecond))
	fmt.Println("loadgen: wire verify: every streamed decision bit-identical to the local runtime")
	return nil
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}
