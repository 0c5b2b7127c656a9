package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/stream"
	"repro/pkg/occupancy"
)

// The swap harness is the proof gate of the versioned-model hot-swap: a
// real occupancy server serves live feeds while a shadow-trained candidate
// is installed and atomically activated mid-run, and the harness requires
//
//  1. zero acknowledged frames lost across the swap (every feed's event
//     sequence is gapless);
//  2. version honesty: every decision is tagged with a version that was
//     actually active (or pinned) for that feed, the tag never flips back
//     once the new version appears, and a pinned feed never moves;
//  3. bit-identity: each feed's decision sequence — the old-version prefix
//     and the new-version suffix through ONE stateful runtime — matches an
//     offline replay of the fetched bundles exactly;
//  4. the install gate holds: garbage bundles answer model_rejected and
//     never become installable or activatable.
//
// The candidate comes from the server's own durable frame logs via
// core.ShadowTrain, so the gate exercises the full retrain-install-swap
// loop the online-learning design describes.

// switchPred replays a feed's versioned history: the harness points cur at
// the old or new detector before each Process call, mirroring the swap
// boundary the live stream reported.
type switchPred struct{ cur *core.Detector }

func (s *switchPred) PredictRecord(r *dataset.Record) (float64, int) {
	return s.cur.PredictRecord(r)
}

// swapFeedID names feed f of the swap run.
func swapFeedID(f int) string { return fmt.Sprintf("swap-%03d", f) }

// runSwapMode drives the install/activate/pin lifecycle against an
// in-process server under live load.
func runSwapMode(det *core.Detector, recs []dataset.Record, feeds, perFeed, epochs int, seed int64) {
	ctx := context.Background()
	if perFeed < 2 {
		fail(fmt.Errorf("swap: -per-feed must be at least 2"))
	}
	half := perFeed / 2
	tmp, err := os.MkdirTemp("", "loadgen-swap-*")
	fail(err)
	defer os.RemoveAll(tmp)
	model := filepath.Join(tmp, "detector.bin")
	fail(det.SaveFile(model))
	pub, err := occupancy.Load(model)
	fail(err)

	logDir := filepath.Join(tmp, "framelog")
	srv, err := occupancy.NewServer(pub, occupancy.ServeConfig{
		Addr: "127.0.0.1:0",
		// A subscriber buffer covering the whole run makes "no events
		// dropped" a hard guarantee, so a seq gap can only mean lost frames.
		StreamBuffer: perFeed + 8,
		Durability:   occupancy.DurabilityConfig{Dir: logDir, Fsync: "off"},
		Drift:        occupancy.DriftConfig{Baseline: 64, Window: 32},
	})
	fail(err)
	runCtx, stop := context.WithCancel(ctx)
	runDone := make(chan error, 1)
	go func() { runDone <- srv.Run(runCtx) }()
	fmt.Printf("loadgen: swap: server at %s, logging to %s\n", srv.URL(), logDir)
	cl := newLoadClient(srv.URL(), feeds)

	ms, err := cl.Models(ctx)
	fail(err)
	if len(ms.Models) != 1 || ms.Active == "" {
		fail(fmt.Errorf("swap: boot registry: %+v", ms))
	}
	shaA := ms.Active

	// Register every feed and subscribe to its full decision stream before
	// the first frame.
	type feedRun struct {
		events []occupancy.Decision
		done   chan struct{}
	}
	runs := make([]*feedRun, feeds)
	for f := 0; f < feeds; f++ {
		id := swapFeedID(f)
		if _, err := cl.RegisterFeed(ctx, id); err != nil {
			fail(fmt.Errorf("swap: register %s: %w", id, err))
		}
		st, err := cl.StreamDecisions(ctx, id, true)
		fail(err)
		fr := &feedRun{events: make([]occupancy.Decision, 0, perFeed), done: make(chan struct{})}
		runs[f] = fr
		go func() {
			defer close(fr.done)
			defer st.Close()
			for {
				d, err := st.Next()
				if err != nil {
					return
				}
				fr.events = append(fr.events, d)
			}
		}()
	}

	// sendHalf streams frames [from, to) to every feed concurrently and
	// waits for full acknowledgement — a barrier, so the swap lands at a
	// known frame boundary per feed (within one in-flight batch).
	sendHalf := func(from, to int) {
		var wg sync.WaitGroup
		for f := 0; f < feeds; f++ {
			wg.Add(1)
			go func(f int) {
				defer wg.Done()
				id := swapFeedID(f)
				pending := make([]occupancy.Frame, 0, httpBatch)
				flush := func() {
					if len(pending) == 0 {
						return
					}
					if _, err := cl.Ingest(ctx, id, pending); err != nil {
						fail(fmt.Errorf("swap: ingest %s: %w", id, err))
					}
					pending = pending[:0]
				}
				for k := from; k < to; k++ {
					pending = append(pending, httpFrame(recs, f, k))
					if len(pending) == httpBatch {
						flush()
					}
				}
				flush()
			}(f)
		}
		wg.Wait()
	}

	// Phase 1: the whole first half serves on version A.
	sendHalf(0, half)

	// Wait until every first-half frame has its decision, so the shadow
	// training set and the swap boundary are stable.
	for f := 0; f < feeds; f++ {
		waitForSeq(ctx, cl, swapFeedID(f), int64(half-1))
	}

	// The install gate: garbage is rejected on the wire, never listed,
	// never activatable.
	if _, err := cl.InstallModel(ctx, []byte("not-a-detector-bundle")); !occupancy.IsCode(err, "model_rejected") {
		fail(fmt.Errorf("swap: garbage install answered %v, want model_rejected", err))
	}
	if err := cl.ActivateModel(ctx, "0000000000000000000000000000000000000000000000000000000000000000"); !occupancy.IsCode(err, "unknown_model") {
		fail(fmt.Errorf("swap: bogus activate answered %v, want unknown_model", err))
	}
	if ms, err = cl.Models(ctx); err != nil || len(ms.Models) != 1 {
		fail(fmt.Errorf("swap: rejected candidate leaked into the registry: %+v %v", ms, err))
	}
	fmt.Println("loadgen: swap: install gate holds (model_rejected / unknown_model)")

	// Phase 2: shadow-train a candidate from the server's own frame logs,
	// pseudo-labelled by the bundle the server actually serves.
	activeBlob, err := cl.FetchModel(ctx)
	fail(err)
	active, err := core.LoadDetector(bytes.NewReader(activeBlob))
	fail(err)
	scfg := core.ShadowTrainConfig{
		LogDir:         logDir,
		MaxFrames:      20000,
		CheckpointPath: filepath.Join(tmp, "shadow.ckpt"),
		Detector: core.DetectorConfig{
			Hidden: []int{32, 16},
			Train:  nn.DefaultTrainConfig(),
			Seed:   seed + 1,
		},
	}
	scfg.Detector.Train.Epochs = epochs
	t0 := time.Now()
	candidate, nTrained, err := core.ShadowTrain(active, scfg)
	fail(err)
	var bundleB bytes.Buffer
	fail(candidate.Save(&bundleB))
	fmt.Printf("loadgen: swap: shadow-trained candidate on %d logged frames in %v\n", nTrained, time.Since(t0).Round(time.Millisecond))

	// Phase 3: install, pin feed 0 to the incumbent, activate — the swap.
	infoB, err := cl.InstallModel(ctx, bundleB.Bytes())
	fail(err)
	shaB := infoB.ID
	if shaB == shaA {
		fail(fmt.Errorf("swap: candidate collided with the incumbent"))
	}
	fail(cl.PinFeedModel(ctx, swapFeedID(0), shaA))
	fail(cl.ActivateModel(ctx, shaB))
	if ms, err = cl.Models(ctx); err != nil || ms.Active != shaB {
		fail(fmt.Errorf("swap: activation not visible: %+v %v", ms, err))
	}
	fmt.Printf("loadgen: swap: activated %.12s… mid-run (feed 0 pinned to %.12s…)\n", shaB, shaA)

	// Phase 4: the second half serves on version B (feed 0 stays on A).
	sendHalf(half, perFeed)
	waitForSeq(ctx, cl, swapFeedID(0), int64(perFeed-1))

	// Surface the drift detectors exercised along the way (the listing only
	// covers live feeds, so read it before closing them).
	if infos, err := cl.ListFeeds(ctx); err == nil {
		for _, fi := range infos {
			if fi.Drift != nil && fi.ID == swapFeedID(0) {
				fmt.Printf("loadgen: swap: drift on %s: %d windows, psi %.3f, ks %.3f\n",
					fi.ID, fi.Drift.Windows, fi.Drift.PSI, fi.Drift.KS)
			}
		}
	}

	for f := 0; f < feeds; f++ {
		id := swapFeedID(f)
		if err := cl.CloseFeed(ctx, id); err != nil {
			fail(fmt.Errorf("swap: close %s: %w", id, err))
		}
	}
	for _, fr := range runs {
		<-fr.done
	}

	// Verification. Replay each feed offline through one stateful runtime,
	// switching detectors at the boundary the live tags report: the smoother
	// and imputation state carry across the swap, so post-swap decisions are
	// a function of both models' history — exactly what the server must have
	// computed.
	detA, err := core.LoadDetector(bytes.NewReader(mustFetch(ctx, cl, shaA)))
	fail(err)
	detB, err := core.LoadDetector(bytes.NewReader(mustFetch(ctx, cl, shaB)))
	fail(err)
	lost, diverged := 0, 0
	for f := 0; f < feeds; f++ {
		ev := runs[f].events
		if len(ev) != perFeed {
			fail(fmt.Errorf("swap: %s streamed %d of %d decisions", swapFeedID(f), len(ev), perFeed))
		}
		boundary := perFeed
		for k := range ev {
			if ev[k].Seq != int64(k) {
				lost++
			}
			switch ev[k].ModelVersion {
			case shaA:
				if k >= boundary {
					fail(fmt.Errorf("swap: %s flipped back to the old version at seq %d", swapFeedID(f), k))
				}
			case shaB:
				if f == 0 {
					fail(fmt.Errorf("swap: pinned feed served the new version at seq %d", k))
				}
				if boundary == perFeed {
					boundary = k
				}
			default:
				fail(fmt.Errorf("swap: %s decision %d tagged with unknown version %q", swapFeedID(f), k, ev[k].ModelVersion))
			}
		}
		if f == 0 {
			boundary = perFeed // pinned: the whole run replays on A
		} else if boundary != half {
			// The activation landed at the barrier between the halves with
			// no frames in flight, so the tag must flip exactly there.
			fail(fmt.Errorf("swap: %s swapped at seq %d, want the half boundary %d", swapFeedID(f), boundary, half))
		}

		sp := &switchPred{cur: detA}
		rt, err := stream.New(stream.Config{Primary: sp, PrimaryUsesEnv: detA.Features != dataset.FeatCSI})
		fail(err)
		for k := 0; k < perFeed; k++ {
			if k == boundary {
				sp.cur = detB
			}
			d := rt.Process(refFrame(recs, f, k))
			e := ev[k]
			if math.Float64bits(e.P) != math.Float64bits(d.P) || e.Pred != d.Pred ||
				e.State != d.State || e.Mode != d.Mode.String() {
				diverged++
			}
		}
	}
	if lost != 0 || diverged != 0 {
		fail(fmt.Errorf("swap: %d seq gaps, %d decisions diverged from the offline replay", lost, diverged))
	}

	stop()
	if err := <-runDone; err != nil {
		fail(fmt.Errorf("swap: server shutdown: %w", err))
	}
	fmt.Printf("loadgen: swap: %d feeds × %d frames across an atomic swap — zero frames lost, all decisions bit-identical to the offline replay\n",
		feeds, perFeed)
}

// waitForSeq polls a feed's latest decision until it reaches seq.
func waitForSeq(ctx context.Context, cl *occupancy.Client, id string, seq int64) {
	deadline := time.Now().Add(60 * time.Second)
	for {
		d, ok, err := cl.Occupancy(ctx, id)
		if err == nil && ok && d.Seq >= seq {
			return
		}
		if time.Now().After(deadline) {
			fail(fmt.Errorf("swap: %s never reached seq %d", id, seq))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// mustFetch downloads one version's bundle.
func mustFetch(ctx context.Context, cl *occupancy.Client, sha string) []byte {
	b, err := cl.FetchModelVersion(ctx, sha)
	fail(err)
	return b
}
