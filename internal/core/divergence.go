package core

import (
	"fmt"

	"repro/internal/cpukit"
	"repro/internal/dataset"
	"repro/internal/infer"
)

// Divergence harness (DESIGN.md §12): before a reduced-precision scorer
// serves traffic, sweep it against the float64 reference over a simulated
// feed and bound how far the probabilities drift and — the number that
// actually matters for an occupancy detector — how often the 0.5-threshold
// decision flips. The f64 path stays the bit-exact reproduction reference;
// f32/int8 are admitted only inside these bounds.

// DivergenceConfig parametrises RunDivergence. The zero value of the bound
// fields selects per-precision defaults (DefaultDivergenceBounds).
type DivergenceConfig struct {
	// Precision is the reduced path under test: "f32" or "int8" ("" selects
	// "f32"; "f64" is rejected — it is the reference, not a candidate).
	Precision string
	// MaxAbsDelta fails the sweep when any |P_reduced − P_f64| exceeds it
	// (0: the precision's default; negative: no probability bound).
	MaxAbsDelta float64
	// MaxFlipRate fails the sweep when the fraction of records whose
	// decision flips exceeds it. 0 is a real bound — no flips allowed —
	// and the default for both precisions; negative disables the check.
	MaxFlipRate float64
}

// DefaultDivergenceBounds returns the default (MaxAbsDelta, MaxFlipRate)
// for a precision: f32 must stay within 1e-3 probability of the reference
// (measured drift on the standard simulated day is ~1e-6; the slack covers
// pathologically ill-conditioned models), int8 within 0.15 (8-bit weights
// genuinely move saturated probabilities), and neither may flip a single
// decision.
func DefaultDivergenceBounds(p infer.Precision) (maxAbsDelta, maxFlipRate float64) {
	if p == infer.PrecisionI8 {
		return 0.15, 0
	}
	return 1e-3, 0
}

// Validate reports whether the configuration is runnable.
func (c DivergenceConfig) Validate() error {
	p, err := infer.ParsePrecision(c.Precision)
	if err != nil {
		return err
	}
	if c.Precision != "" && p == infer.PrecisionF64 {
		return fmt.Errorf("core: divergence needs a reduced precision (f32 or int8), not the f64 reference")
	}
	return nil
}

// DivergenceResult reports one sweep of a reduced-precision scorer against
// the float64 reference.
type DivergenceResult struct {
	Precision infer.Precision
	// Kernel names the cpukit kernel ("generic" or "avx2") the candidate ran
	// on. The bounds admit a (precision, kernel) pair, not a precision alone:
	// the AVX2 kernels regroup float accumulation, so their drift must be
	// re-measured, and this field keeps the report unambiguous about which
	// arithmetic was actually swept.
	Kernel  string
	Samples int
	// MaxAbsDelta / MeanAbsDelta summarise |P_reduced − P_f64|.
	MaxAbsDelta  float64
	MeanAbsDelta float64
	// Flips counts records whose 0.5-threshold decision changed; FlipRate
	// is Flips/Samples.
	Flips    int
	FlipRate float64
	// Bounds the sweep was judged against, after defaulting.
	BoundAbsDelta float64
	BoundFlipRate float64
	// Pass is true when every configured bound held.
	Pass bool
}

// String renders the one-line report the CLIs print.
func (r *DivergenceResult) String() string {
	verdict := "FAIL"
	if r.Pass {
		verdict = "ok"
	}
	return fmt.Sprintf("%s vs f64 (%s kernel): %d samples, max |Δp| %.3g (bound %.3g), mean %.3g, %d decision flips (rate %.3g, bound %.3g) — %s",
		r.Precision, r.Kernel, r.Samples, r.MaxAbsDelta, r.BoundAbsDelta, r.MeanAbsDelta,
		r.Flips, r.FlipRate, r.BoundFlipRate, verdict)
}

// RunDivergence sweeps every record through two engines over the detector —
// the float64 reference and the reduced precision — comparing probabilities
// and decisions. Extraction and standardisation are the same code on both
// sides, so the measured divergence is purely the forward pass arithmetic.
func RunDivergence(det *Detector, recs []dataset.Record, cfg DivergenceConfig) (*DivergenceResult, error) {
	if det == nil || det.Net == nil || det.Scaler == nil {
		return nil, fmt.Errorf("core: RunDivergence needs a trained detector")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("core: RunDivergence on zero records")
	}
	prec, _ := infer.ParsePrecision(cfg.Precision)
	if cfg.Precision == "" {
		prec = infer.PrecisionF32
	}

	// Reference: the f64 engine, bit-identical to Detector.PredictRecord.
	// Candidate: an engine at the reduced precision, as serving builds it.
	// Either lowering refuses a network no arena can score.
	ref, err := NewDetectorEngine(det, ServeConfig{Precision: string(infer.PrecisionF64)})
	if err != nil {
		return nil, err
	}
	reduced, err := NewDetectorEngine(det, ServeConfig{Precision: string(prec)})
	if err != nil {
		return nil, err
	}

	res := &DivergenceResult{Precision: prec, Kernel: cpukit.Active().String(), Samples: len(recs)}
	res.BoundAbsDelta, res.BoundFlipRate = DefaultDivergenceBounds(prec)
	if cfg.MaxAbsDelta != 0 {
		res.BoundAbsDelta = cfg.MaxAbsDelta
	}
	if cfg.MaxFlipRate != 0 {
		res.BoundFlipRate = cfg.MaxFlipRate
	}

	sum := 0.0
	for i := range recs {
		p64, l64 := ref.PredictRecord(&recs[i])
		pr, lr := reduced.PredictRecord(&recs[i])
		d := pr - p64
		if d < 0 {
			d = -d
		}
		sum += d
		if d > res.MaxAbsDelta {
			res.MaxAbsDelta = d
		}
		if l64 != lr {
			res.Flips++
		}
	}
	res.MeanAbsDelta = sum / float64(res.Samples)
	res.FlipRate = float64(res.Flips) / float64(res.Samples)
	res.Pass = true
	if res.BoundAbsDelta >= 0 && res.MaxAbsDelta > res.BoundAbsDelta {
		res.Pass = false
	}
	if res.BoundFlipRate >= 0 && res.FlipRate > res.BoundFlipRate {
		res.Pass = false
	}
	return res, nil
}
