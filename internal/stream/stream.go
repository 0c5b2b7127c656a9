// Package stream is the hardened runtime between a (possibly faulty) CSI
// capture and an occupancy detector. It owns everything deployment needs
// that a clean-room evaluation does not:
//
//   - imputation — short gaps from dropped frames are bridged by holding
//     the last CSI vector; a missing env reading is bridged by holding the
//     last one;
//   - graceful degradation — a frame whose env reading is gone, before the
//     first reading or once the gap has lasted WatchdogFrames frames, is
//     scored by a CSI-only fallback detector instead of the CSI+Env
//     primary; there is no mode to enter or leave, each frame's own gap
//     decides;
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

// Mode identifies which detector served a frame. It is a property of the
// one decision, not a state the runtime is in.
type Mode int

// Per-decision modes.
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

// Config parametrises the runtime. A zero Fallback disables degradation:
// the primary is used throughout, a frame before the first env reading is
// held and later gaps are imputed.
type Config struct {
	// Primary is the preferred detector (typically CSI+Env).
	Primary Predictor
	// Fallback, when non-nil, scores the frames whose env reading is gone:
	// those before the first reading, and those WatchdogFrames or more
	// frames into a gap (typically the CSI-only detector).
	Fallback Predictor
	// PrimaryUsesEnv declares whether Primary consumes Temp/Humidity. When
	// false, env faults never trigger imputation or fallback.
	PrimaryUsesEnv bool

	// MaxHoldGap is the longest run of dropped frames bridged by holding
	// the last CSI vector; longer gaps hold the previous *decision*
	// instead of fabricating data. Default 8.
	MaxHoldGap int
	// WatchdogFrames is how many consecutive frames without a fresh env
	// reading the primary scores on the last reading, held, before Fallback
	// scores the rest of the gap. It counts frames, not time: the default
	// 40 is 2 s at the paper's 20 Hz but 80 s at 0.5 Hz.
	WatchdogFrames int
	// SmootherNeed enables hysteresis smoothing of the announced state
	// when > 0: a flip requires that many consecutive contrary samples.
	SmootherNeed int

	// Observer receives the runtime's metrics (per-frame mode, imputation
	// and flip counters). Nil disables observability at zero cost;
	// attaching one never changes a decision — instruments only count
	// (DESIGN.md §10). Several runtimes may share one Observer: the series
	// aggregate.
	Observer obs.Observer
}

// Validate reports whether the configuration can run. Zero fields select
// defaults (withDefaults), so only contradictions fail: a missing primary
// detector or negative counts. New calls it; callers may too, as a
// pre-flight check.
func (c Config) Validate() error {
	if c.Primary == nil {
		return errors.New("stream: Config.Primary is required")
	}
	if c.MaxHoldGap < 0 || c.WatchdogFrames < 0 || c.SmootherNeed < 0 {
		return fmt.Errorf("stream: negative frame counts (hold %d, watchdog %d, smoother %d)",
			c.MaxHoldGap, c.WatchdogFrames, c.SmootherNeed)
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
	frames     *obs.Counter
	primary    *obs.Counter
	fallback   *obs.Counter
	held       *obs.Counter
	csiImputed *obs.Counter
	envImputed *obs.Counter
	flips      *obs.Counter
}

// newMetrics resolves the stream instrument set against o (nil → all-nil).
func newMetrics(o obs.Observer) metrics {
	if o == nil {
		return metrics{}
	}
	return metrics{
		frames:     o.Counter("stream_frames_total", "frames processed by the runtime"),
		primary:    o.Counter("stream_primary_frames_total", "frames served by the primary detector"),
		fallback:   o.Counter("stream_fallback_frames_total", "frames served by the fallback detector"),
		held:       o.Counter("stream_held_frames_total", "frames where the previous decision was held"),
		csiImputed: o.Counter("stream_csi_imputed_total", "dropped frames bridged by holding the last CSI vector"),
		envImputed: o.Counter("stream_env_imputed_total", "missing env readings bridged by holding the last one"),
		flips:      o.Counter("stream_flips_total", "smoothed occupancy state transitions"),
	}
}

// Runtime hardens a detector against the fault channel. Not safe for
// concurrent use; give each stream its own Runtime.
type Runtime struct {
	cfg Config
	sm  *Smoother
	m   metrics

	envMissRun int // consecutive frames without a fresh env reading
	dropRun    int

	lastCSI           [csi.NumSubcarriers]float64
	haveCSI           bool
	lastDec           Decision
	haveDec           bool
	lastTemp, lastHum float64
	haveEnv           bool

	// rec is the record handed to the detector: the frame's, with imputed
	// fields patched in. It lives here because the pointer passed through
	// the Predictor interface escapes — a local would cost one heap record
	// per frame.
	rec dataset.Record
}

// New builds a Runtime; zero config fields take defaults. Primary must be
// set.
func New(cfg Config) (*Runtime, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	rt := &Runtime{cfg: cfg, m: newMetrics(cfg.Observer)}
	if cfg.SmootherNeed > 0 {
		rt.sm = NewSmoother(0, cfg.SmootherNeed)
	}
	return rt, nil
}

// Process runs one frame through imputation, detector selection and the
// detector, returning the decision. Purely deterministic in the frame
// sequence. Aggregate counts (frames, modes, imputations) live in the
// stream_* series of the configured Observer.
func (rt *Runtime) Process(f fault.Frame) Decision {
	cfg := &rt.cfg
	rt.m.frames.Inc()
	if f.EnvOK {
		rt.envMissRun = 0
		rt.lastTemp, rt.lastHum, rt.haveEnv = f.Rec.Temp, f.Rec.Humidity, true
	} else {
		rt.envMissRun++
	}

	// --- CSI gap bridging -------------------------------------------------
	rec := &rt.rec
	*rec = f.Rec
	var d Decision
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
	// A frame without a fresh reading goes to the fallback when there is no
	// reading to hold or the gap has lasted a watchdog interval; otherwise
	// the primary scores it on the last reading, held.
	pred := cfg.Primary
	if cfg.PrimaryUsesEnv && !f.EnvOK {
		switch {
		case cfg.Fallback != nil && (!rt.haveEnv || rt.envMissRun >= cfg.WatchdogFrames):
			pred, d.Mode = cfg.Fallback, ModeFallback
		case !rt.haveEnv:
			return rt.hold(d)
		default:
			rec.Temp, rec.Humidity = rt.lastTemp, rt.lastHum
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
	if d.Mode == ModeFallback {
		rt.m.fallback.Inc()
	} else {
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
