// Package drift detects distribution shift in a live stream of decision
// scores.
//
// The detector is the online analogue of the paper's fold-4 regime break
// (Table IV): a frozen model keeps serving while the environment under it
// changes, and the first observable symptom is the score distribution
// drifting away from what the model produced when it was installed. The
// detector accumulates a baseline histogram over the first Baseline scores,
// then evaluates every subsequent tumbling window of Window scores against
// that baseline with two complementary statistics:
//
//   - PSI (population stability index), Σ (w−b)·ln(w/b) over histogram
//     bins — sensitive to mass moving between bins;
//   - KS (Kolmogorov–Smirnov), the maximum CDF gap — sensitive to a
//     shift in location even when binning smears it.
//
// A window exceeding either threshold extends a streak; Consecutive
// over-threshold windows latch the trigger. Everything is a pure function
// of the score sequence: no clocks, no randomness, no goroutines. Feeding
// two detectors the same configuration and the same scores produces
// bit-identical statistics and the identical trigger sample — the property
// the server's replay-based recovery and the loadgen harness rely on.
//
// The package deliberately has no dependency on internal/obs: the caller
// (internal/server) owns metric export, keyed off Result.
package drift

import (
	"fmt"
	"math"
)

// Defaults applied by New for zero fields.
const (
	DefaultBaseline    = 512
	DefaultWindow      = 256
	DefaultBins        = 16
	DefaultPSI         = 0.25
	DefaultKS          = 0.2
	DefaultConsecutive = 2
)

// Config parameterizes a Detector. The zero value means "drift detection
// off" (Enabled reports false); setting any field enables it with defaults
// for the remaining zero fields.
type Config struct {
	// Baseline is the number of scores accumulated as the reference
	// distribution before any evaluation happens (default 512).
	Baseline int
	// Window is the tumbling evaluation window size (default 256).
	Window int
	// Bins is the histogram resolution over [0,1] (default 16).
	Bins int
	// PSI is the population-stability-index trigger threshold
	// (default 0.25, the conventional "significant shift" mark).
	// Negative disables the PSI criterion.
	PSI float64
	// KS is the Kolmogorov–Smirnov trigger threshold (default 0.2).
	// Negative disables the KS criterion.
	KS float64
	// Consecutive is how many successive over-threshold windows latch the
	// trigger (default 2; 1 triggers on the first bad window).
	Consecutive int
}

// Enabled reports whether this configuration asks for drift detection at
// all: the zero value is disabled, any set field enables it.
func (c Config) Enabled() bool { return c != Config{} }

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Baseline == 0 {
		c.Baseline = DefaultBaseline
	}
	if c.Window == 0 {
		c.Window = DefaultWindow
	}
	if c.Bins == 0 {
		c.Bins = DefaultBins
	}
	if c.PSI == 0 {
		c.PSI = DefaultPSI
	}
	if c.KS == 0 {
		c.KS = DefaultKS
	}
	if c.Consecutive == 0 {
		c.Consecutive = DefaultConsecutive
	}
	return c
}

// Validate reports whether the configuration is usable. The zero value is
// valid (detection disabled).
func (c Config) Validate() error {
	if !c.Enabled() {
		return nil
	}
	d := c.withDefaults()
	if d.Baseline < d.Bins {
		return fmt.Errorf("drift: Baseline %d smaller than Bins %d", d.Baseline, d.Bins)
	}
	if d.Window < 1 {
		return fmt.Errorf("drift: Window %d < 1", d.Window)
	}
	if d.Bins < 2 {
		return fmt.Errorf("drift: Bins %d < 2", d.Bins)
	}
	if d.Consecutive < 1 {
		return fmt.Errorf("drift: Consecutive %d < 1", d.Consecutive)
	}
	if math.IsNaN(d.PSI) || math.IsNaN(d.KS) {
		return fmt.Errorf("drift: NaN threshold")
	}
	if d.PSI < 0 && d.KS < 0 {
		return fmt.Errorf("drift: both PSI and KS criteria disabled")
	}
	return nil
}

// Result is the detector state after one observation (or a State
// snapshot).
type Result struct {
	// Sample is the 1-based count of scores observed so far.
	Sample int64
	// Evaluated reports that this observation closed a window, making
	// PSI/KS fresh.
	Evaluated bool
	// PSI and KS are the statistics of the most recently evaluated
	// window (zero until the first window closes).
	PSI float64
	KS  float64
	// Windows is how many evaluation windows have closed.
	Windows int64
	// Streak is the current run of consecutive over-threshold windows.
	Streak int
	// Triggered latches once Streak reaches Consecutive; it stays set
	// until Reset.
	Triggered bool
	// TriggerSample is the Sample at which Triggered latched (0 before).
	TriggerSample int64
}

// Detector is an online drift detector over scores in [0,1]. It is not
// safe for concurrent use; the server serializes observations per feed.
type Detector struct {
	cfg Config

	n       int64
	ref     []int64   // baseline histogram counts
	refN    int       // baseline samples accumulated
	refFrac []float64 // smoothed baseline fractions (set once complete)
	refCDF  []float64
	win     []int64 // current evaluation window histogram
	winN    int

	psi, ks   float64
	windows   int64
	streak    int
	triggered bool
	trigAt    int64
}

// New builds a detector; cfg must be Enabled and Valid.
func New(cfg Config) (*Detector, error) {
	if !cfg.Enabled() {
		return nil, fmt.Errorf("drift: config is disabled (zero value)")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	return &Detector{
		cfg: cfg,
		ref: make([]int64, cfg.Bins),
		win: make([]int64, cfg.Bins),
	}, nil
}

// Reset discards everything — baseline included — so the detector
// re-baselines on the next scores. The server calls this when the model
// behind a feed changes: the old reference distribution describes the old
// model's scores, not the new one's.
func (d *Detector) Reset() {
	d.n = 0
	d.refN, d.winN = 0, 0
	for i := range d.ref {
		d.ref[i] = 0
		d.win[i] = 0
	}
	d.refFrac, d.refCDF = nil, nil
	d.psi, d.ks = 0, 0
	d.windows = 0
	d.streak = 0
	d.triggered = false
	d.trigAt = 0
}

// bin maps a score to its histogram bin, clamping out-of-range input.
func (d *Detector) bin(p float64) int {
	if math.IsNaN(p) || p <= 0 {
		return 0
	}
	if p >= 1 {
		return d.cfg.Bins - 1
	}
	i := int(p * float64(d.cfg.Bins))
	if i >= d.cfg.Bins {
		i = d.cfg.Bins - 1
	}
	return i
}

// smoothed converts histogram counts to Laplace-smoothed fractions, so a
// bin empty on one side never produces an infinite PSI term.
func smoothed(h []int64, n int) []float64 {
	out := make([]float64, len(h))
	den := float64(n) + 0.5*float64(len(h))
	for i, c := range h {
		out[i] = (float64(c) + 0.5) / den
	}
	return out
}

// Observe feeds one score and returns the resulting state. Deterministic:
// the returned Result is a pure function of the configuration and the
// score sequence so far.
func (d *Detector) Observe(p float64) Result {
	d.n++
	b := d.bin(p)

	if d.refN < d.cfg.Baseline {
		d.ref[b]++
		d.refN++
		if d.refN == d.cfg.Baseline {
			d.refFrac = smoothed(d.ref, d.refN)
			d.refCDF = cdf(d.refFrac)
		}
		return d.state(false)
	}

	d.win[b]++
	d.winN++
	if d.winN < d.cfg.Window {
		return d.state(false)
	}

	// Window closed: evaluate against the baseline.
	winFrac := smoothed(d.win, d.winN)
	d.psi = psi(winFrac, d.refFrac)
	d.ks = ksGap(cdf(winFrac), d.refCDF)
	d.windows++
	over := (d.cfg.PSI >= 0 && d.psi > d.cfg.PSI) || (d.cfg.KS >= 0 && d.ks > d.cfg.KS)
	if over {
		d.streak++
	} else {
		d.streak = 0
	}
	if !d.triggered && d.streak >= d.cfg.Consecutive {
		d.triggered = true
		d.trigAt = d.n
	}
	for i := range d.win {
		d.win[i] = 0
	}
	d.winN = 0
	return d.state(true)
}

// State snapshots the detector without observing anything.
func (d *Detector) State() Result { return d.state(false) }

func (d *Detector) state(evaluated bool) Result {
	return Result{
		Sample:        d.n,
		Evaluated:     evaluated,
		PSI:           d.psi,
		KS:            d.ks,
		Windows:       d.windows,
		Streak:        d.streak,
		Triggered:     d.triggered,
		TriggerSample: d.trigAt,
	}
}

// psi is the population stability index between two smoothed fraction
// vectors of equal length.
func psi(w, b []float64) float64 {
	var s float64
	for i := range w {
		s += (w[i] - b[i]) * math.Log(w[i]/b[i])
	}
	return s
}

// cdf accumulates fractions into a CDF.
func cdf(frac []float64) []float64 {
	out := make([]float64, len(frac))
	var acc float64
	for i, f := range frac {
		acc += f
		out[i] = acc
	}
	return out
}

// ksGap is the maximum absolute gap between two CDFs.
func ksGap(a, b []float64) float64 {
	var m float64
	for i := range a {
		if g := math.Abs(a[i] - b[i]); g > m {
			m = g
		}
	}
	return m
}
