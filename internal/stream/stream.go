// Package stream is the hardened runtime between a (possibly faulty) CSI
// capture and an occupancy detector. It owns everything deployment needs
// that a clean-room evaluation does not:
//
//   - imputation — short gaps from dropped frames are bridged by holding
//     the last CSI vector; missing env readings are held or linearly
//     extrapolated, policy-selectable;
//   - graceful degradation — a watchdog counts consecutive missing env
//     readings and swaps the CSI+Env primary detector for a CSI-only
//     fallback when the env feed dies, swapping back after the feed has
//     been healthy again for a recovery window;
//   - hysteresis smoothing — per-sample flicker is debounced before a
//     state transition is announced (Smoother).
//
// The runtime is Process, one call per frame, driven from the caller's own
// loop: the server's under its feed lock, cmd/occupredict's inside
// dataset.Stream's callback. It is purely deterministic: its output is a
// function of the frame sequence alone, never of time or scheduling, which
// is what lets internal/core's robustness sweep promise bit-identical
// results for any worker count. The package reads no clock and draws no
// random numbers (TestNoClockInStream).
package stream

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/csi"
	"repro/internal/dataset"
	"repro/internal/fault"
	"repro/internal/obs"
)

// Predictor is the slice of a detector the runtime needs. *core.Detector
// implements it; the indirection keeps this package free of a dependency
// cycle with internal/core. The record belongs to the caller and is reused
// for the next frame: an implementation reads it and lets go.
type Predictor interface {
	PredictRecord(r *dataset.Record) (float64, int)
}

// Mode identifies which detector served a frame.
type Mode int

// Runtime modes.
const (
	ModePrimary Mode = iota
	ModeFallback
	ModeHeld // no inference ran; the previous decision was held
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModePrimary:
		return "primary"
	case ModeFallback:
		return "fallback"
	case ModeHeld:
		return "held"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ImputePolicy selects how missing env readings are bridged.
type ImputePolicy int

// Imputation policies for env gaps.
const (
	// ImputeHold repeats the last delivered reading.
	ImputeHold ImputePolicy = iota
	// ImputeLinear extrapolates linearly from the last two readings.
	ImputeLinear
)

// Config parametrises the runtime. A zero Fallback disables degradation
// (the primary is used throughout, with imputed env when missing).
type Config struct {
	// Primary is the preferred detector (typically CSI+Env).
	Primary Predictor
	// Fallback, when non-nil, takes over while the env feed is dead
	// (typically the CSI-only detector).
	Fallback Predictor
	// PrimaryUsesEnv declares whether Primary consumes Temp/Humidity. When
	// false, env faults never trigger imputation or fallback.
	PrimaryUsesEnv bool

	// MaxHoldGap is the longest run of dropped frames bridged by holding
	// the last CSI vector; longer gaps hold the previous *decision*
	// instead of fabricating data. Default 8.
	MaxHoldGap int
	// Imputation selects the env gap-bridging policy. Default ImputeHold.
	Imputation ImputePolicy
	// WatchdogFrames is how many consecutive frames without a fresh env
	// reading the watchdog tolerates before degrading to Fallback.
	// Default 40 (2 s at the paper's 20 Hz).
	WatchdogFrames int
	// RecoverFrames is how many consecutive healthy env frames are needed
	// before returning to Primary. Default 100 (5 s at 20 Hz).
	RecoverFrames int
	// SmootherNeed enables hysteresis smoothing of the announced state
	// when > 0: a flip requires that many consecutive contrary samples.
	SmootherNeed int

	// Observer receives the runtime's metrics (frame/imputation/transition
	// counters, the current mode). Nil disables observability at zero cost;
	// attaching one never changes a decision — instruments only count
	// (DESIGN.md §10). Several runtimes may share one Observer: the series
	// aggregate.
	Observer obs.Observer
}

// Validate reports whether the configuration can run. Zero fields select
// defaults (withDefaults), so only contradictions fail: a missing primary
// detector, negative counts, or an unknown imputation policy. New calls
// it; callers may too, as a pre-flight check.
func (c Config) Validate() error {
	if c.Primary == nil {
		return errors.New("stream: Config.Primary is required")
	}
	if c.MaxHoldGap < 0 || c.WatchdogFrames < 0 || c.RecoverFrames < 0 || c.SmootherNeed < 0 {
		return fmt.Errorf("stream: negative frame counts (hold %d, watchdog %d, recover %d, smoother %d)",
			c.MaxHoldGap, c.WatchdogFrames, c.RecoverFrames, c.SmootherNeed)
	}
	if c.Imputation != ImputeHold && c.Imputation != ImputeLinear {
		return fmt.Errorf("stream: unknown imputation policy %d", int(c.Imputation))
	}
	return nil
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.MaxHoldGap == 0 {
		c.MaxHoldGap = 8
	}
	if c.WatchdogFrames == 0 {
		c.WatchdogFrames = 40
	}
	if c.RecoverFrames == 0 {
		c.RecoverFrames = 100
	}
	return c
}

// Decision is the runtime's output for one frame.
type Decision struct {
	// P is the model probability of occupancy (NaN-free; held frames
	// repeat the previous probability).
	P float64
	// Pred is the per-sample model decision (0/1).
	Pred int
	// State is the announced (smoothed) occupancy state.
	State int
	// Flipped reports a smoothed state transition on this frame.
	Flipped bool
	// Mode identifies which detector served the frame.
	Mode Mode
	// CSIImputed / EnvImputed mark bridged inputs.
	CSIImputed bool
	EnvImputed bool
}

// metrics are the runtime's obs instruments. All fields stay nil when no
// Observer is configured; every method on a nil instrument no-ops, so the
// uninstrumented hot path pays one nil check per touch.
type metrics struct {
	frames       *obs.Counter
	primary      *obs.Counter
	fallback     *obs.Counter
	held         *obs.Counter
	csiImputed   *obs.Counter
	envImputed   *obs.Counter
	degradations *obs.Counter
	recoveries   *obs.Counter
	flips        *obs.Counter
	mode         *obs.Gauge
}

// newMetrics resolves the stream instrument set against o (nil → all-nil).
func newMetrics(o obs.Observer) metrics {
	if o == nil {
		return metrics{}
	}
	return metrics{
		frames:       o.Counter("stream_frames_total", "frames processed by the runtime"),
		primary:      o.Counter("stream_primary_frames_total", "frames served by the primary detector"),
		fallback:     o.Counter("stream_fallback_frames_total", "frames served by the fallback detector"),
		held:         o.Counter("stream_held_frames_total", "frames where the previous decision was held"),
		csiImputed:   o.Counter("stream_csi_imputed_total", "dropped frames bridged by holding the last CSI vector"),
		envImputed:   o.Counter("stream_env_imputed_total", "missing env readings bridged by imputation"),
		degradations: o.Counter("stream_degradations_total", "primary-to-fallback transitions"),
		recoveries:   o.Counter("stream_recoveries_total", "fallback-to-primary transitions"),
		flips:        o.Counter("stream_flips_total", "smoothed occupancy state transitions"),
		mode:         o.Gauge("stream_mode", "current degradation mode (0=primary 1=fallback 2=held)"),
	}
}

// Runtime hardens a detector against the fault channel. Not safe for
// concurrent use; give each stream its own Runtime.
type Runtime struct {
	cfg Config
	sm  *Smoother
	m   metrics

	mode       Mode
	envMissRun int
	envOKRun   int
	dropRun    int

	lastCSI  [csi.NumSubcarriers]float64
	haveCSI  bool
	lastDec  Decision
	haveDec  bool
	envHist  [2]envSample // [0] newest, [1] previous
	envCount int

	frames        int // frames processed so far; also the next frame index
	firstFallback int // index of the first fallback-served frame, -1 until one

	// rec is the record handed to the detector: the frame's, with imputed
	// fields patched in. It lives here because the pointer passed through
	// the Predictor interface escapes — a local would cost one heap record
	// per frame.
	rec dataset.Record
}

type envSample struct {
	index     int
	temp, hum float64
}

// New builds a Runtime; zero config fields take defaults. Primary must be
// set.
func New(cfg Config) (*Runtime, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	rt := &Runtime{
		cfg:           cfg,
		mode:          ModePrimary,
		m:             newMetrics(cfg.Observer),
		firstFallback: -1,
	}
	if cfg.SmootherNeed > 0 {
		rt.sm = NewSmoother(0, cfg.SmootherNeed)
	}
	return rt, nil
}

// FirstFallbackFrame returns the index of the first frame served by the
// fallback detector, or -1 if the runtime has never fallen back. Aggregate
// counts (frames, imputations, transitions) live in the stream_* series of
// the configured Observer.
func (rt *Runtime) FirstFallbackFrame() int { return rt.firstFallback }

// Process runs one frame through imputation, the degradation state machine
// and the detector, returning the decision. Purely deterministic in the
// frame sequence.
func (rt *Runtime) Process(f fault.Frame) Decision {
	cfg := &rt.cfg
	idx := rt.frames
	rt.frames++
	rt.m.frames.Inc()

	// --- env feed tracking ------------------------------------------------
	if f.EnvOK {
		rt.envOKRun++
		rt.envMissRun = 0
		rt.envHist[1] = rt.envHist[0]
		rt.envHist[0] = envSample{index: idx, temp: f.Rec.Temp, hum: f.Rec.Humidity}
		if rt.envCount < 2 {
			rt.envCount++
		}
	} else {
		rt.envMissRun++
		rt.envOKRun = 0
	}

	// --- degradation state machine ---------------------------------------
	if cfg.PrimaryUsesEnv && cfg.Fallback != nil {
		switch rt.mode {
		case ModePrimary:
			if rt.envMissRun >= cfg.WatchdogFrames {
				rt.mode = ModeFallback
				rt.m.degradations.Inc()
				rt.m.mode.Set(float64(ModeFallback))
			}
		case ModeFallback:
			if rt.envOKRun >= cfg.RecoverFrames {
				rt.mode = ModePrimary
				rt.m.recoveries.Inc()
				rt.m.mode.Set(float64(ModePrimary))
			}
		}
	}

	// --- CSI gap bridging -------------------------------------------------
	rec := &rt.rec
	*rec = f.Rec
	d := Decision{Mode: rt.mode}
	if f.Dropped {
		rt.dropRun++
		if !rt.haveCSI || rt.dropRun > cfg.MaxHoldGap {
			return rt.hold(d)
		}
		rec.CSI = rt.lastCSI
		d.CSIImputed = true
		rt.m.csiImputed.Inc()
	} else {
		rt.dropRun = 0
		rt.lastCSI = f.Rec.CSI
		rt.haveCSI = true
	}

	// --- env imputation & detector selection ------------------------------
	pred := cfg.Primary
	if rt.mode == ModeFallback {
		pred = cfg.Fallback
	} else if cfg.PrimaryUsesEnv && !f.EnvOK {
		if rt.envCount == 0 {
			// No env reading ever arrived: the primary cannot run yet.
			if cfg.Fallback != nil {
				pred = cfg.Fallback
				d.Mode = ModeFallback
			} else {
				return rt.hold(d)
			}
		} else {
			rec.Temp, rec.Humidity = rt.imputeEnv(idx)
			d.EnvImputed = true
			rt.m.envImputed.Inc()
		}
	}

	// --- inference --------------------------------------------------------
	d.P, d.Pred = pred.PredictRecord(rec)
	d.State = d.Pred
	if rt.sm != nil {
		d.State, d.Flipped = rt.sm.Push(d.Pred)
		if d.Flipped {
			rt.m.flips.Inc()
		}
	}
	switch d.Mode {
	case ModeFallback:
		rt.m.fallback.Inc()
		if rt.firstFallback < 0 {
			rt.firstFallback = idx
		}
	default:
		rt.m.primary.Inc()
	}
	rt.lastDec = d
	rt.haveDec = true
	return d
}

// hold repeats the previous decision when no inference can run.
func (rt *Runtime) hold(d Decision) Decision {
	d.Mode = ModeHeld
	rt.m.held.Inc()
	if rt.haveDec {
		d.P, d.Pred, d.State = rt.lastDec.P, rt.lastDec.Pred, rt.lastDec.State
	}
	return d
}

// imputeEnv bridges a missing env reading at frame idx.
func (rt *Runtime) imputeEnv(idx int) (temp, hum float64) {
	last := rt.envHist[0]
	if rt.cfg.Imputation == ImputeHold || rt.envCount < 2 {
		return last.temp, last.hum
	}
	prev := rt.envHist[1]
	span := float64(last.index - prev.index)
	if span <= 0 {
		return last.temp, last.hum
	}
	ahead := float64(idx - last.index)
	return last.temp + (last.temp-prev.temp)/span*ahead,
		last.hum + (last.hum-prev.hum)/span*ahead
}

// Run hands every frame from frames, with its Process decision, to fn
// until the channel closes (nil), ctx is done (ctx.Err()) or fn fails (its
// error). Only the benchmark's run-loop probe calls it; the CLIs and the
// server call Process from their own loops.
func (rt *Runtime) Run(ctx context.Context, frames <-chan fault.Frame, fn func(fault.Frame, Decision) error) error {
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case f, ok := <-frames:
			if !ok {
				return nil
			}
			if err := fn(f, rt.Process(f)); err != nil {
				return err
			}
		}
	}
}
