// Command occupredict runs a trained detector over a live simulated CSI
// stream at the paper's 20 Hz, printing occupancy decisions as they change —
// the real-time deployment mode §IV-B argues the lightweight MLP enables.
//
// The stream passes through the fault-injection channel (internal/fault) and
// the degradation-aware runtime (internal/stream): at -fault 0 the channel is
// the identity; at -fault 1 it models ~20% bursty frame loss, AGC resteps,
// subcarrier nulls and env-sensor outages, and the runtime imputes short gaps
// and scores a frame with the CSI-only model instead of the C+E detector when
// its env gap has lasted the watchdog interval. Each generated record goes
// through the fault channel and the runtime's Process inside
// dataset.Stream's callback: one loop, no queue.
// Ctrl-C ends that loop (dataset.Stream returns ctx.Err()) and shuts down
// gracefully: stats are flushed and the exit code is 0.
//
// Usage:
//
//	occupredict [-model detector.bin] [-minutes m] [-rate hz] [-seed n]
//	            [-fault intensity] [-smooth k] [-epochs n]
//	            [-precision f64|f32|int8] [-metrics-addr :9090]
//
// Without -model, a detector is trained on the fly first (plus a CSI-only
// fallback so the degradation path is live); -epochs shortens that training.
// With -metrics-addr, the process serves Prometheus metrics on /metrics and
// the standard pprof profiles on /debug/pprof/ for the whole run.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/dataset"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/stream"
	"repro/pkg/occupancy"
)

func main() {
	var (
		model     = flag.String("model", "", "detector bundle (empty: train one on the fly)")
		minutes   = flag.Float64("minutes", 10, "simulated stream duration")
		rate      = flag.Float64("rate", 20, "stream rate in Hz (paper: 20)")
		seed      = flag.Int64("seed", 42, "stream random seed")
		intensity = flag.Float64("fault", 0, "fault-channel intensity (0 = clean, 1 = ~20% bursty loss + env outages)")
		smooth    = flag.Int("smooth", 0, "state flips only after k consecutive contrary samples (0 = raw)")
		precision = flag.String("precision", "f64", "inference arithmetic: f64 (bit-exact reference), f32 (fast) or int8 (small)")
		epochs    = flag.Int("epochs", 5, "training epochs for the on-the-fly detector (ignored with -model)")
		metrics   = flag.String("metrics-addr", "", "serve Prometheus /metrics and /debug/pprof on this address (e.g. :9090; empty disables)")
	)
	flag.Parse()
	fail(validateFlags(*rate, *minutes, *intensity, *smooth, *model))
	if *epochs < 1 {
		fail(fmt.Errorf("-epochs must be >= 1 (got %d)", *epochs))
	}
	// Fail before training if OCCU_KERNEL asked for a kernel this CPU
	// cannot run.
	fail(occupancy.KernelError())
	fmt.Printf("occupredict: compute kernel %s\n", occupancy.KernelDescription())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// One registry backs everything: the end-of-run stats report reads the
	// fault_*/stream_* series back from it, and -metrics-addr
	// additionally exposes it over HTTP before any heavy work so training
	// progress is already scrapable.
	reg := obs.NewRegistry()
	var observer obs.Observer = reg
	if *metrics != "" {
		srv, err := obs.StartServer(*metrics, reg)
		fail(err)
		defer srv.Close()
		fmt.Printf("occupredict: metrics at %s/metrics, profiles at %s/debug/pprof/\n", srv.URL(), srv.URL())
	}

	// Model lifecycle goes through the public facade (pkg/occupancy) — the
	// same path an external consumer would use — with the in-module
	// Observer hook wiring train_* into the shared registry.
	var primary, fallback *occupancy.Detector
	var err error
	if *model != "" {
		primary, err = occupancy.Load(*model)
		fail(err)
		fmt.Printf("occupredict: loaded %s (%s features)\n", *model, primary.Features())
	} else {
		fmt.Println("occupredict: no -model; training C+E and CSI-only detectors on a synthetic day")
		tcfg := occupancy.TrainConfig{Epochs: *epochs, Observer: observer}
		primary, err = occupancy.Train(tcfg)
		fail(err)
		tcfg.Features = occupancy.FeaturesCSI
		fallback, err = occupancy.Train(tcfg)
		fail(err)
	}

	// Serve the detectors through the inference engine: each network
	// lowered once, scored on the caller's goroutine with a pooled arena,
	// with predictions bit-identical to calling the detectors directly at
	// f64 (DESIGN.md §9). This is the deployment shape — cmd/loadgen drives
	// the same path with many feeds.
	ecfg := occupancy.EngineConfig{Precision: *precision}
	fail(ecfg.Validate())
	if *precision != occupancy.PrecisionF64 {
		fmt.Printf("occupredict: serving at %s precision (f64 is the bit-exact reference; divergence is bounded, DESIGN.md §12)\n", *precision)
	}
	primaryEng, err := occupancy.NewEngine(primary, ecfg)
	fail(err)
	var fallbackPred stream.Predictor
	if fallback != nil {
		fallbackEng, err := occupancy.NewEngine(fallback, ecfg)
		fail(err)
		fallbackPred = fallbackEng
	}

	rt, err := stream.New(stream.Config{
		Primary:        primaryEng,
		Fallback:       fallbackPred,
		PrimaryUsesEnv: primary.Features() != occupancy.FeaturesCSI,
		SmootherNeed:   *smooth,
		Observer:       observer,
	})
	fail(err)

	// Stream a fresh scenario (different seed ⇒ unseen trace) during a
	// workday morning so both transitions occur.
	scfg := dataset.DefaultGenConfig(*rate, *seed)
	scfg.Start = dataset.PaperStart.Add(41 * time.Hour) // Jan 6, 08:08
	scfg.Duration = time.Duration(*minutes * float64(time.Minute))

	fcfg := fault.DefaultProfile(*seed + 1).Scale(*intensity)
	fcfg.Observer = observer
	inj := fault.NewInjector(fcfg)

	var cm struct{ correct, total int }
	last := -1
	lastMode := stream.ModePrimary
	err = dataset.Stream(ctx, scfg, func(r dataset.Record) error {
		f := inj.Apply(r)
		d := rt.Process(f)
		truth := f.Truth.Label()
		cm.total++
		if d.State == truth {
			cm.correct++
		}
		if d.Mode != lastMode {
			fmt.Printf("%s  ** runtime mode: %v → %v\n",
				f.Rec.Time.Format("15:04:05.000"), lastMode, d.Mode)
			lastMode = d.Mode
		}
		if d.State != last {
			status := "EMPTY"
			if d.State == 1 {
				status = "OCCUPIED"
			}
			fmt.Printf("%s  →  %-8s (p=%.3f, truth=%d, %d people)\n",
				f.Rec.Time.Format("15:04:05.000"), status, d.P, truth, f.Truth.Count)
			last = d.State
		}
		return nil
	})
	interrupted := errors.Is(err, context.Canceled)
	if err != nil && !interrupted {
		fail(err)
	}

	if interrupted {
		fmt.Println("\noccupredict: interrupted — flushing stats")
	}
	count := func(name string) int64 { return reg.Counter(name, "").Value() }
	fmt.Printf("occupredict: %d samples, streaming accuracy %.2f%%\n",
		cm.total, 100*float64(cm.correct)/float64(maxi(cm.total, 1)))
	if *intensity > 0 {
		frames, dropped := count("fault_frames_total"), count("fault_dropped_total")
		fmt.Printf("occupredict: faults: %.1f%% frames dropped, %d env gaps, %d null bursts, %d AGC jumps\n",
			100*float64(dropped)/float64(maxi(int(frames), 1)),
			count("fault_env_missing_total"), count("fault_null_bursts_total"), count("fault_agc_jumps_total"))
		fmt.Printf("occupredict: runtime: %d primary / %d fallback / %d held, %d CSI imputed, %d env imputed\n",
			count("stream_primary_frames_total"), count("stream_fallback_frames_total"),
			count("stream_held_frames_total"), count("stream_csi_imputed_total"),
			count("stream_env_imputed_total"))
	}
}

// validateFlags rejects nonsensical flag values before any heavy work runs.
// The float flags must be finite: the comparisons below are written so that
// NaN fails them, and +Inf is refused by name.
func validateFlags(rate, minutes, intensity float64, smooth int, model string) error {
	if !(rate > 0) || math.IsInf(rate, 1) {
		return fmt.Errorf("-rate must be positive and finite (got %g)", rate)
	}
	if !(minutes > 0) || math.IsInf(minutes, 1) {
		return fmt.Errorf("-minutes must be positive and finite (got %g)", minutes)
	}
	if !(intensity >= 0) || math.IsInf(intensity, 1) {
		return fmt.Errorf("-fault must be non-negative and finite (got %g)", intensity)
	}
	if smooth < 0 {
		return fmt.Errorf("-smooth must be non-negative (got %d)", smooth)
	}
	if model != "" {
		if _, err := os.Stat(model); err != nil {
			return fmt.Errorf("-model: %w", err)
		}
	}
	return nil
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "occupredict:", err)
		os.Exit(1)
	}
}
