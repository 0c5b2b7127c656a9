// Package infer is the inference engine: it serves one trained model to many
// concurrent callers at hardware speed, on the callers' own goroutines.
//
// New builds Workers Scorers (for nn models: a forward arena over the shared
// network) into a bounded free list. Predict takes one, runs the fused
// single-row path on the calling goroutine — vector·matrix over raw slices,
// no tensor.Matrix wrapping, zero heap allocations — and puts it back. There
// are no scoring goroutines, no submission queue and no clock: a caller
// waits only when all Workers arenas are in use, so concurrency and scratch
// memory are bounded by Workers and a lone caller pays two channel
// operations on top of the kernel. Rows are not batched across callers: at
// this model size the batched kernel is no cheaper per row than the row
// path (DESIGN.md §9), so a hand-off to gather a batch only adds latency.
//
// Determinism guarantee (same discipline as internal/parallel and the
// stream runtime): each row's score is a pure function of that row and the
// model — never of which arena ran it or what ran beside it.
// TestEngineBitIdentical sweeps arena counts under concurrent callers to
// enforce this.
//
// The engine deliberately does not know about feature extraction or
// scalers; it scores prepared feature rows. core.DetectorEngine layers
// record→features→standardise→Predict on top and plugs into the stream
// runtime's Predictor seam.
package infer

import (
	"errors"
	"fmt"
	"runtime"

	"repro/internal/cpukit"
	"repro/internal/nn"
	"repro/internal/obs"
)

// Scorer is one private view of a model; for nn models it is an *nn.Arena.
// Implementations are NOT required to be safe for concurrent use — the
// engine builds Workers of them from the Config.NewScorer factory and lends
// each to one caller at a time. PredictProb1 must agree bit for bit with the
// model's reference prediction path at its precision on every row.
type Scorer interface {
	// InputDim returns the feature width the model expects.
	InputDim() int
	// PredictProb1 scores a single feature row.
	PredictProb1(row []float64) float64
}

// Precision selects the numeric representation the engine's scorers compute
// in. PrecisionF64 is the bit-exact reproduction reference and the default
// everywhere determinism is asserted; PrecisionF32 and PrecisionI8 trade
// bounded probability divergence (verified by core's divergence harness)
// for throughput and model footprint.
type Precision = nn.Precision

const (
	// PrecisionF64 scores the float64 program — bit-identical to the
	// reference prediction path. The default.
	PrecisionF64 = nn.F64
	// PrecisionF32 scores the float32 sparse-compaction program.
	PrecisionF32 = nn.F32
	// PrecisionI8 scores int8-quantised weights with float32 activations.
	// Smaller, not faster, on scalar CPUs — see DESIGN.md §12.
	PrecisionI8 = nn.I8
)

// ParsePrecision maps a flag/config string onto a Precision; the empty
// string selects the float64 default.
func ParsePrecision(s string) (Precision, error) {
	switch Precision(s) {
	case "", PrecisionF64:
		return PrecisionF64, nil
	case PrecisionF32:
		return PrecisionF32, nil
	case PrecisionI8:
		return PrecisionI8, nil
	}
	return "", fmt.Errorf("infer: unknown precision %q (want f64, f32 or int8)", s)
}

// NetworkScorerAt returns a Scorer factory for net at the given precision
// ("" selects f64). The network is lowered once (nn.Lower) and every Scorer
// is an arena over that one read-only program, so the arena count does not
// multiply the conversion cost. Fails on an unknown precision and on any
// stack nn.Lower cannot serve — a convolution, widths that do not chain, a
// head wider than one column — so a model that cannot be scored is refused
// here, at every precision, instead of panicking on its first row. At f64
// the arenas read the network's own weights: do not train it while the
// engine is live.
func NetworkScorerAt(net *nn.Network, p Precision) (func() Scorer, error) {
	p, err := ParsePrecision(string(p))
	if err != nil {
		return nil, err
	}
	prog, err := nn.Lower(net, p)
	if err != nil {
		return nil, err
	}
	return func() Scorer { return prog.NewArena() }, nil
}

// Config parametrises an Engine.
type Config struct {
	// NewScorer builds one Scorer per arena. Required.
	NewScorer func() Scorer
	// Precision declares the numeric representation the scorers compute in
	// (empty: PrecisionF64). It must match what NewScorer builds — use
	// NetworkScorerAt to derive both from one value. The engine itself is
	// representation-agnostic; the field is validated, surfaced via
	// Engine.Precision, and exists so serving configs have one audited
	// precision knob instead of an opaque factory.
	Precision Precision
	// Workers is how many Scorers the engine builds, i.e. how many Predict
	// calls can score at once. <= 0 selects parallel.Workers semantics
	// (GOMAXPROCS).
	Workers int
	// Observer receives the engine's metrics: request and forward-pass
	// counters and arena utilization. Nil disables observability at zero
	// cost. Attaching one never changes a score — instruments only count
	// (DESIGN.md §10). Engines sharing an Observer aggregate into the same
	// infer_* series.
	Observer obs.Observer
}

// Validate reports whether the configuration can build an engine. Workers
// uses <= 0 to select the default, so only the missing scorer factory — the
// one thing New cannot invent — and an unknown precision fail. New calls
// it; callers may too, as a pre-flight check.
func (c Config) Validate() error {
	if c.NewScorer == nil {
		return errors.New("infer: Config.NewScorer is required")
	}
	if _, err := ParsePrecision(string(c.Precision)); err != nil {
		return err
	}
	return nil
}

// metrics are the engine's obs instruments; all nil (no-op) without an
// Observer. The infer_* series are the engine's only counters — callers
// wanting numbers attach an obs.Registry and read it back.
type metrics struct {
	requests    *obs.Counter
	batches     *obs.Counter
	fastPath    *obs.Counter
	batchSize   *obs.Histogram
	busyWorkers *obs.Gauge
	workers     *obs.Gauge
	kernelAVX2  *obs.Gauge
}

// newMetrics resolves the engine instrument set against o (nil → all-nil).
// Every forward pass scores one row on the fused row path, so the batch
// series move in step with infer_requests_total; they keep their names and
// their meaning — one observation per forward pass — for the dashboards and
// the benchmark that read them.
func newMetrics(o obs.Observer) metrics {
	if o == nil {
		return metrics{}
	}
	return metrics{
		requests:    o.Counter("infer_requests_total", "rows scored"),
		batches:     o.Counter("infer_batches_total", "forward passes"),
		fastPath:    o.Counter("infer_fast_path_total", "forward passes served by the fused row path"),
		batchSize:   o.Histogram("infer_batch_size", "rows per forward pass", []float64{1}),
		busyWorkers: o.Gauge("infer_busy_workers", "arenas currently scoring"),
		workers:     o.Gauge("infer_workers", "arenas configured"),
		// The obs model has no labels, so kernel identity is a 0/1 gauge:
		// 1 when the AVX2+FMA kernels serve this process, 0 for generic.
		kernelAVX2: o.Gauge("infer_kernel_avx2", "1 when the cpukit AVX2 kernel is active, 0 for generic"),
	}
}

// Engine is the concurrent scorer. Safe for use from any number of
// goroutines.
type Engine struct {
	cfg Config
	dim int
	// free holds the Scorers no Predict is using; its capacity is Workers.
	// Close empties and closes it, so a receive that finds it closed is a
	// Predict after Close.
	free chan Scorer
	m    metrics
}

// New validates cfg, builds the Workers Scorers and returns the engine.
func New(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	cfg.Precision, _ = ParsePrecision(string(cfg.Precision))
	e := &Engine{
		cfg:  cfg,
		free: make(chan Scorer, cfg.Workers),
		m:    newMetrics(cfg.Observer),
	}
	for w := 0; w < cfg.Workers; w++ {
		sc := cfg.NewScorer()
		if sc == nil {
			return nil, errors.New("infer: NewScorer returned nil")
		}
		e.dim = sc.InputDim()
		e.free <- sc
	}
	e.m.workers.Set(float64(cfg.Workers))
	if cpukit.Active() == cpukit.KernelAVX2 {
		e.m.kernelAVX2.Set(1)
	}
	return e, nil
}

// Precision returns the declared scorer precision (PrecisionF64 unless the
// config said otherwise).
func (e *Engine) Precision() Precision { return e.cfg.Precision }

// Kernel names the cpukit compute kernel every score this engine produces
// runs on ("generic" or "avx2") — a process-wide constant, surfaced here so
// serving logs and the infer_kernel_avx2 gauge agree on what arithmetic is
// live.
func (e *Engine) Kernel() string { return cpukit.Active().String() }

// Predict scores one feature row on the calling goroutine, waiting only
// while all Workers Scorers are in use. The row is read until Predict
// returns and is not retained. Zero heap allocations. Panics if the engine
// is closed.
func (e *Engine) Predict(row []float64) float64 {
	sc, ok := <-e.free
	if !ok {
		panic("infer: Predict called on a closed Engine")
	}
	e.m.busyWorkers.Add(1)
	p := sc.PredictProb1(row)
	e.m.busyWorkers.Add(-1)
	e.free <- sc
	e.m.requests.Inc()
	e.m.batches.Inc()
	e.m.fastPath.Inc()
	e.m.batchSize.Observe(1)
	return p
}

// PredictLabel scores one row and thresholds at 0.5.
func (e *Engine) PredictLabel(row []float64) (float64, int) {
	p := e.Predict(row)
	if p >= 0.5 {
		return p, 1
	}
	return p, 0
}

// Close waits for every in-flight Predict to return its Scorer and then
// retires the engine; a Predict issued afterwards panics.
func (e *Engine) Close() {
	for w := 0; w < e.cfg.Workers; w++ {
		<-e.free
	}
	close(e.free)
}
