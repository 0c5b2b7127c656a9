package core

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/cpukit"
	"repro/internal/dataset"
	"repro/internal/infer"
	"repro/internal/nn"
)

// ServeConfig parametrises a DetectorEngine. The zero value is a sensible
// deployment default: float64 scoring.
type ServeConfig struct {
	// MaxDelay is accepted and ignored. It configured the straggler window
	// of the micro-batch coalescer, which no longer exists; the field stays
	// only because bench/occubench sets it and bench/ is frozen across a PR
	// that claims a gain. Drop it with the next benchmark PR (ROADMAP item
	// 1(a)).
	MaxDelay time.Duration
	// Precision selects the scorer arithmetic: "f64" (default; bit-identical
	// to Detector.PredictRecord), "f32" (float32 sparse-compaction arenas,
	// the fast serving path) or "int8" (quantised weights, smallest
	// footprint). Reduced precisions diverge boundedly from the reference —
	// bound them with RunDivergence before deploying (DESIGN.md §12).
	Precision string
}

// Validate reports whether the engine parameters are usable: only an
// unknown precision fails.
func (c ServeConfig) Validate() error {
	_, err := infer.ParsePrecision(c.Precision)
	return err
}

// DetectorEngine serves one trained Detector to many concurrent callers.
// The network is lowered once (nn.Lower) at the configured precision, and
// each PredictRecord scores on the caller's own goroutine with a pooled
// scratch — a forward arena over that one read-only program plus a feature
// row — so there are no scoring goroutines, no queue, no clock and no cap on
// how many callers score at once. It implements stream.Predictor, so a fleet
// of stream Runtimes — one per sensor feed — can share a single model
// without each paying the allocating per-record path.
//
// A record's score is a pure function of the record and the lowered program,
// never of which pooled arena ran it or what ran beside it. At the default
// "f64" precision it is bit-identical to Detector.PredictRecord (see
// TestDetectorEngineBitIdentical and DESIGN.md §9). At "f32"/"int8" it
// diverges boundedly from the f64 reference; RunDivergence measures and
// bounds that divergence. Safe for concurrent use.
type DetectorEngine struct {
	det     *Detector
	prec    infer.Precision
	scratch sync.Pool // *engineScratch
}

// engineScratch is one caller's private workspace.
type engineScratch struct {
	arena *nn.Arena
	row   []float64 // len = Features.Dim()
}

// NewDetectorEngine lowers a trained detector for serving. It fails on an
// unknown precision and on any stack nn.Lower cannot serve — a convolution,
// widths that do not chain, a head wider than one column — so a model that
// cannot be scored is refused here instead of panicking on its first row. At
// f64 the arenas read the network's own weights: do not train it while the
// engine is live.
func NewDetectorEngine(d *Detector, cfg ServeConfig) (*DetectorEngine, error) {
	if d == nil || d.Net == nil || d.Scaler == nil {
		return nil, fmt.Errorf("core: NewDetectorEngine needs a trained detector")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	prec, _ := infer.ParsePrecision(cfg.Precision)
	prog, err := nn.Lower(d.Net, prec)
	if err != nil {
		return nil, err
	}
	de := &DetectorEngine{det: d, prec: prec}
	dim := d.Features.Dim()
	de.scratch.New = func() any {
		return &engineScratch{arena: prog.NewArena(), row: make([]float64, dim)}
	}
	return de, nil
}

// Precision returns the scorer precision the engine was built with.
func (de *DetectorEngine) Precision() infer.Precision { return de.prec }

// Kernel names the cpukit compute kernel every score this engine produces
// runs on ("generic" or "avx2") — a process-wide constant.
func (de *DetectorEngine) Kernel() string { return cpukit.Active().String() }

// PredictRecord classifies one record through the engine, returning
// P(occupied) and the label — the same contract as Detector.PredictRecord,
// bit for bit at f64, but allocation-free in steady state. It implements
// stream.Predictor.
func (de *DetectorEngine) PredictRecord(r *dataset.Record) (float64, int) {
	s := de.scratch.Get().(*engineScratch)
	dataset.FeatureRowInto(s.row, r, de.det.Features)
	de.det.Scaler.TransformRow(s.row)
	p := s.arena.PredictProb1(s.row)
	de.scratch.Put(s)
	if p >= 0.5 {
		return p, 1
	}
	return p, 0
}

// Close is a no-op: the engine holds nothing to release. It stays only
// because bench/occubench calls it; drop it with the next benchmark PR
// (ROADMAP item 1(a)).
func (de *DetectorEngine) Close() {}
