package core

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/infer"
	"repro/internal/obs"
)

// ServeConfig parametrises a DetectorEngine. The zero value is a sensible
// deployment default: one forward arena per core, float64 scoring.
type ServeConfig struct {
	// Workers is how many callers can score at once (<= 0: one per core).
	Workers int
	// MaxDelay is accepted and ignored. It configured the straggler window
	// of the micro-batch coalescer, which no longer exists; the field stays
	// only because bench/occubench sets it and bench/ is frozen across a PR
	// that claims a gain. Drop it with the next benchmark PR (ROADMAP).
	MaxDelay time.Duration
	// Precision selects the scorer arithmetic: "f64" (default; bit-identical
	// to Detector.PredictRecord), "f32" (float32 sparse-compaction arenas,
	// the fast serving path) or "int8" (quantised weights, smallest
	// footprint). Reduced precisions diverge boundedly from the reference —
	// bound them with RunDivergence before deploying (DESIGN.md §12).
	Precision string
	// Observer receives the engine's infer_* metrics (see infer.Config).
	// Nil disables observability.
	Observer obs.Observer
}

// Validate reports whether the engine parameters are usable. Workers uses
// <= 0 for "one per core", so only an unknown precision fails.
func (c ServeConfig) Validate() error {
	_, err := infer.ParsePrecision(c.Precision)
	return err
}

// DetectorEngine serves one trained Detector to many concurrent callers
// through the inference engine (internal/infer): a bounded free list of
// forward arenas and the fused single-sample path, run on the caller's
// goroutine. It implements stream.Predictor, so a fleet of stream Runtimes
// — one per sensor feed — can share a single model at full hardware
// throughput instead of each paying the allocating per-record path.
//
// At the default "f64" precision, predictions are bit-identical to
// Detector.PredictRecord for any worker count and any number of concurrent
// callers (see TestDetectorEngineBitIdentical and DESIGN.md §9). At
// "f32"/"int8" the engine keeps the same internal determinism — a record's
// score is a pure function of the record and the model — but diverges
// boundedly from the f64 reference; RunDivergence measures and bounds that
// divergence. Safe for concurrent use. Close waits for in-flight
// predictions; a prediction after Close panics.
type DetectorEngine struct {
	det  *Detector
	eng  *infer.Engine
	rows sync.Pool // *[]float64, len = Features.Dim()
}

// NewDetectorEngine starts a serving engine over a trained detector.
func NewDetectorEngine(d *Detector, cfg ServeConfig) (*DetectorEngine, error) {
	if d == nil || d.Net == nil || d.Scaler == nil {
		return nil, fmt.Errorf("core: NewDetectorEngine needs a trained detector")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	prec := infer.Precision(cfg.Precision)
	newScorer, err := infer.NetworkScorerAt(d.Net, prec)
	if err != nil {
		return nil, err
	}
	eng, err := infer.New(infer.Config{
		NewScorer: newScorer,
		Precision: prec,
		Workers:   cfg.Workers,
		Observer:  cfg.Observer,
	})
	if err != nil {
		return nil, err
	}
	de := &DetectorEngine{det: d, eng: eng}
	dim := d.Features.Dim()
	de.rows.New = func() any {
		s := make([]float64, dim)
		return &s
	}
	return de, nil
}

// Precision returns the scorer precision the engine was built with.
func (de *DetectorEngine) Precision() infer.Precision { return de.eng.Precision() }

// Kernel names the compute kernel the engine's scores run on.
func (de *DetectorEngine) Kernel() string { return de.eng.Kernel() }

// PredictRecord classifies one record through the engine, returning
// P(occupied) and the label — the same contract as Detector.PredictRecord,
// bit for bit, but allocation-free. It implements stream.Predictor.
func (de *DetectorEngine) PredictRecord(r *dataset.Record) (float64, int) {
	bp := de.rows.Get().(*[]float64)
	row := *bp
	dataset.FeatureRowInto(row, r, de.det.Features)
	de.det.Scaler.TransformRow(row)
	p, label := de.eng.PredictLabel(row)
	de.rows.Put(bp)
	return p, label
}

// Close waits for in-flight predictions and retires the engine; a
// prediction afterwards panics.
func (de *DetectorEngine) Close() { de.eng.Close() }
