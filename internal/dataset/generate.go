package dataset

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/agents"
	"repro/internal/csi"
	"repro/internal/envsim"
)

// PaperStart is the collection start instant of §V-A (Jan 04 2022, 15:08:40).
var PaperStart = time.Date(2022, 1, 4, 15, 8, 40, 0, time.UTC)

// PaperDuration is the 74-hour collection window of §V-A.
const PaperDuration = 74 * time.Hour

// GenConfig controls dataset generation.
type GenConfig struct {
	Start    time.Time
	Duration time.Duration
	// Rate is the sampling frequency in Hz. The paper's hardware sampled
	// at 20 Hz; lower rates trade fidelity for memory/compute and leave
	// every statistical property intact (records are i.i.d. thinnings of
	// the same processes).
	Rate float64
	Seed int64

	Agents agents.Config
	Env    envsim.Config
	CSI    csi.Config
}

// Validate reports whether the scenario can generate: the sampling rate and
// duration must be positive (and the rate low enough that a tick is at
// least one nanosecond), and the nested simulator configs must themselves
// validate. Stream calls it; callers may too, as a pre-flight check.
func (c GenConfig) Validate() error {
	if !(c.Rate > 0) {
		return fmt.Errorf("dataset: non-positive sample rate %g", c.Rate)
	}
	if c.Duration <= 0 {
		return fmt.Errorf("dataset: non-positive duration %v", c.Duration)
	}
	if dt := time.Duration(float64(time.Second) / c.Rate); dt <= 0 {
		return fmt.Errorf("dataset: rate %g too high", c.Rate)
	}
	if err := c.Agents.Validate(); err != nil {
		return err
	}
	if err := c.Env.Validate(); err != nil {
		return err
	}
	return c.CSI.Validate()
}

// DefaultGenConfig returns a paper-shaped scenario at the given sampling
// rate: the 74-hour window of §V-A with the fold-4 heater outage and the
// fold-5 heat-boost + full-occupancy afternoon scripted so the Table III /
// Table IV structure emerges.
func DefaultGenConfig(rate float64, seed int64) GenConfig {
	start := PaperStart
	// Fold boundaries (70% train, then 5 equal test folds — Table III).
	foldDur := time.Duration(float64(PaperDuration) * 0.3 / 5)
	trainEnd := start.Add(time.Duration(float64(PaperDuration) * 0.7)) // ≈ Jan 6 19:16
	fold4Start := trainEnd.Add(3 * foldDur)                            // ≈ Jan 7 08:41
	fold5Start := trainEnd.Add(4 * foldDur)                            // ≈ Jan 7 13:09
	end := start.Add(PaperDuration)

	acfg := agents.DefaultConfig()
	acfg.Seed = seed + 1
	// Nights empty: folds 1–3 cover Jan 6 19:16 – Jan 7 08:41. The normal
	// schedule (arrive ~9:12) leaves a small occupied overlap at the very
	// start of fold 4, mirroring its 17%-empty mix.
	acfg.ForcedEmpty = []agents.TimeRange{
		{From: trainEnd, To: fold4Start.Add(25 * time.Minute)},
	}
	// Fold 5 is fully occupied in the paper (321741 occupied, 0 empty).
	acfg.ForcedBusy = []agents.BusyRange{
		{TimeRange: agents.TimeRange{From: fold5Start.Add(-30 * time.Minute), To: end.Add(time.Hour)}, MinPresent: 2},
	}

	ecfg := envsim.DefaultConfig()
	// Fold 4 regime break: the heater fails during the occupied morning
	// and the staff air the room, so both "occupied ⇒ warm" and
	// "occupied ⇒ humid" shortcuts learned from the training days invert —
	// Env-only models collapse (Table IV fold 4, LogReg Env 18%).
	ecfg.Outages = []envsim.Interval{
		{From: fold4Start.Add(-90 * time.Minute), To: fold5Start},
	}
	ecfg.Aerations = []envsim.Interval{
		{From: fold4Start.Add(30 * time.Minute), To: fold5Start},
	}
	// Fold 5 heat boost: T climbs into the 30s (Table III: max 31.6 °C).
	ecfg.Boosts = []envsim.Interval{
		{From: fold5Start, To: end},
	}

	ccfg := csi.DefaultConfig()
	ccfg.Seed = seed + 2

	return GenConfig{
		Start:    start,
		Duration: PaperDuration,
		Rate:     rate,
		Seed:     seed,
		Agents:   acfg,
		Env:      ecfg,
		CSI:      ccfg,
	}
}

// Generate materialises the full dataset in memory.
func Generate(cfg GenConfig) (*Dataset, error) {
	var d Dataset
	n := int(cfg.Duration.Seconds() * cfg.Rate)
	if n > 0 {
		d.Records = make([]Record, 0, n)
	}
	err := Stream(context.Background(), cfg, func(r Record) error {
		d.Records = append(d.Records, r)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &d, nil
}

// Stream generates records one at a time, invoking fn for each. It is the
// memory-bounded path used by cmd/csigen for long high-rate traces and by
// cmd/occupredict's live stream. It returns ctx.Err() promptly when the
// context is cancelled mid-trace, letting callers (SIGINT handlers, the
// streaming runtime) shut the generator down without draining the full
// duration; callers that never cancel pass context.Background().
func Stream(ctx context.Context, cfg GenConfig, fn func(Record) error) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cfg.Start.IsZero() {
		cfg.Start = PaperStart
	}
	dt := time.Duration(float64(time.Second) / cfg.Rate)

	occ := agents.New(cfg.Agents)
	env := envsim.NewSimulator(cfg.Env, rand.New(rand.NewSource(cfg.Seed+3)))
	ch := csi.NewSampler(cfg.CSI)
	dtSec := dt.Seconds()

	end := cfg.Start.Add(cfg.Duration)
	for t := cfg.Start; t.Before(end); t = t.Add(dt) {
		if err := ctx.Err(); err != nil {
			return err
		}
		snap := occ.Step(t, dt)
		st := env.Step(t, dt, snap.Count)
		amps := ch.Sample(&snap, st, dtSec)
		walking := 0
		for _, p := range snap.Present {
			if p.Activity == agents.Walking {
				walking++
			}
		}
		rec := Record{
			Time:     t,
			CSI:      amps,
			Temp:     st.Temp,
			Humidity: st.Humidity,
			Count:    snap.Count,
			Walking:  walking,
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
	return nil
}
