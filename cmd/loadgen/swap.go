package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/pkg/occupancy"
)

// The swap gate is the proof of the versioned-model hot-swap: a real
// occupancy server serves live feeds while a shadow-trained candidate is
// installed and atomically activated mid-run, and the harness requires
//
//  1. zero acknowledged frames lost across the swap (every feed's event
//     sequence is complete and gapless);
//  2. version honesty: every decision is tagged with the version that was
//     active (or pinned) for that feed at that frame — the tag flips exactly
//     at the activation barrier, never back, and a pinned feed never moves;
//  3. bit-identity: each feed's decision sequence — the old-version prefix
//     and the new-version suffix through ONE stateful runtime — matches an
//     offline replay of the fetched bundles exactly;
//  4. the install gate holds: garbage bundles answer model_rejected and
//     never become installable or activatable.
//
// The candidate is core.TrainDetector on the server's own durable frame
// logs, pseudo-labelled by core.PseudoLabel, so the gate exercises the full
// retrain-install-swap loop the online-learning design describes.
func runSwap(ctx context.Context, fx fixture, feeds, perFeed, epochs int, seed int64) error {
	half := perFeed / 2
	tmp, err := os.MkdirTemp("", "loadgen-swap-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	logDir := filepath.Join(tmp, "framelog")
	n, err := bootNode(fx.bundle, occupancy.ServeConfig{
		// A subscriber buffer covering the whole run makes "no events
		// dropped" a hard guarantee, so a short stream can only mean lost
		// frames.
		StreamBuffer: perFeed + 8,
		Durability:   occupancy.DurabilityConfig{Dir: logDir, Fsync: "off"},
		Drift:        occupancy.DriftConfig{Baseline: 64, Window: 32},
	})
	if err != nil {
		return err
	}
	defer n.stop()
	fmt.Printf("loadgen: swap: server at %s, logging to %s\n", n.url, logDir)
	cl, err := newLoadClient(n.url, feeds)
	if err != nil {
		return err
	}
	old, err := activeSpan(ctx, cl)
	if err != nil {
		return err
	}

	// Phase 1: every feed opens and the whole first half serves on the boot
	// version. eachFeed returning is the barrier — a 202 means decided, so
	// the shadow training set and the swap boundary are both settled.
	feedID := func(f int) string { return fmt.Sprintf("swap-%03d", f) }
	runs := make([]*feedRun, feeds)
	err = eachFeed(feeds, func(f int) error {
		run, err := openFeed(ctx, cl, feedID(f), f, fx.recs)
		if err != nil {
			return err
		}
		runs[f] = run
		return run.send(ctx, 0, half)
	})
	if err != nil {
		return err
	}

	// The install gate: garbage is rejected on the wire, never listed,
	// never activatable.
	if _, err := cl.InstallModel(ctx, []byte("not-a-detector-bundle")); !occupancy.IsCode(err, "model_rejected") {
		return fmt.Errorf("swap: garbage install answered %v, want model_rejected", err)
	}
	if err := cl.ActivateModel(ctx, strings.Repeat("0", 64)); !occupancy.IsCode(err, "unknown_model") {
		return fmt.Errorf("swap: bogus activate answered %v, want unknown_model", err)
	}
	ms, err := cl.Models(ctx)
	if err != nil || len(ms.Models) != 1 || ms.Active != old.version {
		return fmt.Errorf("swap: rejected candidate leaked into the registry: %+v %v", ms, err)
	}
	fmt.Println("loadgen: swap: install gate holds (model_rejected / unknown_model)")

	// Phase 2: shadow-train a candidate from the server's own frame logs,
	// pseudo-labelled by the bundle the server actually serves.
	t0 := time.Now()
	logged, err := core.PseudoLabel(old.det, logDir, nil, 20000)
	if err != nil {
		return err
	}
	dcfg := core.DetectorConfig{
		Features: old.det.Features,
		Hidden:   []int{32, 16},
		Train:    nn.DefaultTrainConfig(),
		Seed:     seed + 1,
	}
	dcfg.Train.Epochs = epochs
	dcfg.Train.Checkpoint = filepath.Join(tmp, "shadow.ckpt")
	candidate, err := core.TrainDetector(logged, dcfg)
	if err != nil {
		return err
	}
	var bundle bytes.Buffer
	if err := candidate.Save(&bundle); err != nil {
		return err
	}
	fmt.Printf("loadgen: swap: shadow-trained candidate on %d logged frames in %v\n", logged.Len(), time.Since(t0).Round(time.Millisecond))

	// Phase 3: install, pin feed 0 to the incumbent, activate — the swap. No
	// frame is in flight, so every unpinned feed must flip exactly at half.
	info, err := cl.InstallModel(ctx, bundle.Bytes())
	if err != nil {
		return err
	}
	if info.ID == old.version {
		return fmt.Errorf("swap: candidate collided with the incumbent")
	}
	if err := cl.PinFeedModel(ctx, feedID(0), old.version); err != nil {
		return err
	}
	if err := cl.ActivateModel(ctx, info.ID); err != nil {
		return err
	}
	if ms, err = cl.Models(ctx); err != nil || ms.Active != info.ID {
		return fmt.Errorf("swap: activation not visible: %+v %v", ms, err)
	}
	fmt.Printf("loadgen: swap: activated %.12s… mid-run (feed 0 pinned to %.12s…)\n", info.ID, old.version)
	// The reference for the suffix is what the server now serves, fetched
	// back from it like any other version.
	swapped, err := versionSpan(ctx, cl, half, info.ID)
	if err != nil {
		return err
	}

	// Phase 4: the second half serves on the new version (feed 0 stays on
	// the old one).
	err = eachFeed(feeds, func(f int) error { return runs[f].send(ctx, half, perFeed) })
	if err != nil {
		return err
	}

	// Phase 5: close every feed and replay it offline through one stateful
	// runtime, switching detectors at the barrier: the smoother and
	// imputation state carry across the swap, so post-swap decisions are a
	// function of both models' history — exactly what the server must have
	// computed.
	err = eachFeed(feeds, func(f int) error {
		events, err := runs[f].close(ctx)
		if err != nil {
			return err
		}
		spans := []span{old, swapped}
		if f == 0 {
			spans = spans[:1] // pinned: the whole run replays on the old version
		}
		return runs[f].verify(events, 0, perFeed, spans)
	})
	if err != nil {
		return fmt.Errorf("swap: %w", err)
	}
	if err := n.stop(); err != nil {
		return fmt.Errorf("swap: server shutdown: %w", err)
	}
	fmt.Printf("loadgen: swap: %d feeds × %d frames across an atomic swap — zero frames lost, all decisions bit-identical to the offline replay\n",
		feeds, perFeed)
	return nil
}
