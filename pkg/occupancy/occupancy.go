// Package occupancy is the public face of the reproduction: train or load a
// WiFi-sensing occupancy detector, score CSI samples with it, and serve many
// concurrent CSI feeds over HTTP.
//
// The package is a thin facade over the internal packages — every operation
// is bit-identical to the internal path it wraps. The three entry points:
//
//   - Train / TrainFromCSV / Load give you a *Detector;
//   - Detector.Score (or NewEngine for allocation-free, multi-feed scoring)
//     turns a Sample into a Result;
//   - Serve (or NewServer) exposes the detector as the multi-tenant network
//     service implemented by internal/server.
//
// ServeConfig's nested DriftConfig, ClusterConfig and DurabilityConfig are
// aliases of the internal configs they set (drift.Config,
// server.ClusterConfig, framelog.Config), not copies: a setting is declared,
// documented and validated once, and NewServer passes each straight through.
//
// cmd/occupredict and cmd/occuserve are the reference consumers.
package occupancy

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/cpukit"
	"repro/internal/csi"
	"repro/internal/dataset"
	"repro/internal/infer"
	"repro/internal/obs"
)

// NumSubcarriers is the CSI width every Sample must carry: the paper's
// 64-subcarrier amplitude vector.
const NumSubcarriers = csi.NumSubcarriers

// Feature sets a detector can be trained on, matching the paper's Table IV
// column headers.
const (
	FeaturesCSI    = "CSI" // 64 subcarrier amplitudes
	FeaturesEnv    = "Env" // temperature + humidity
	FeaturesCSIEnv = "C+E" // all 66 features (the paper's best)
)

// Sample is one observation to score: a CSI amplitude vector plus, when the
// environmental sensors delivered, a temperature/humidity reading.
type Sample struct {
	Time time.Time
	// CSI holds exactly NumSubcarriers amplitudes.
	CSI []float64
	// Temp/Humidity are consumed only by Env-bearing detectors and only
	// when HasEnv is true.
	Temp     float64
	Humidity float64
	HasEnv   bool
}

// Result is one scored sample.
type Result struct {
	// P is the calibrated probability the room is occupied.
	P float64
	// Occupied is P thresholded at 0.5.
	Occupied bool
}

// record validates the sample and converts it to the internal form.
func (s *Sample) record() (dataset.Record, error) {
	var r dataset.Record
	if len(s.CSI) != NumSubcarriers {
		return r, fmt.Errorf("occupancy: sample has %d subcarriers, want %d", len(s.CSI), NumSubcarriers)
	}
	for k, v := range s.CSI {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return r, fmt.Errorf("occupancy: csi[%d] is not finite", k)
		}
		r.CSI[k] = v
	}
	r.Time = s.Time
	if s.HasEnv {
		r.Temp, r.Humidity = s.Temp, s.Humidity
	}
	return r, nil
}

// TrainConfig controls Train and TrainFromCSV. The zero value trains the
// paper's C+E detector on a synthetic paper-shaped day.
type TrainConfig struct {
	// Features selects the input subset: FeaturesCSI, FeaturesEnv or
	// FeaturesCSIEnv (default FeaturesCSIEnv).
	Features string
	// Epochs bounds training (default: the paper's 10).
	Epochs int
	// Seed makes training and, for Train, the synthetic day deterministic.
	Seed int64
	// SyntheticHours sizes the generated training window for Train
	// (default 24; ignored by TrainFromCSV).
	SyntheticHours int
	// Observer receives the train_* metrics while the detector fits. It is
	// an in-module observability hook (the obs package is internal);
	// external consumers leave it nil.
	Observer obs.Observer
}

// Validate reports whether the configuration is trainable.
func (c TrainConfig) Validate() error {
	switch c.Features {
	case "", FeaturesCSI, FeaturesEnv, FeaturesCSIEnv:
	default:
		return fmt.Errorf("occupancy: unknown feature set %q", c.Features)
	}
	if c.Epochs < 0 {
		return fmt.Errorf("occupancy: negative Epochs %d", c.Epochs)
	}
	if c.SyntheticHours < 0 {
		return fmt.Errorf("occupancy: negative SyntheticHours %d", c.SyntheticHours)
	}
	return nil
}

// detectorConfig lowers the facade config onto the internal trainer.
func (c TrainConfig) detectorConfig() (core.DetectorConfig, error) {
	if err := c.Validate(); err != nil {
		return core.DetectorConfig{}, err
	}
	cfg := core.DefaultDetectorConfig()
	if c.Features != "" {
		var fs dataset.FeatureSet
		if err := fs.UnmarshalText([]byte(c.Features)); err != nil {
			return cfg, err
		}
		cfg.Features = fs
	}
	if c.Epochs > 0 {
		cfg.Train.Epochs = c.Epochs
	}
	if c.Seed != 0 {
		cfg.Seed = c.Seed
	}
	cfg.Train.Observer = c.Observer
	return cfg, nil
}

// Detector is a trained occupancy classifier.
type Detector struct {
	det *core.Detector
}

// Train fits a detector on a synthetic paper-shaped day (the same generator
// that reproduces the paper's evaluation). Use TrainFromCSV for real data.
func Train(cfg TrainConfig) (*Detector, error) {
	dcfg, err := cfg.detectorConfig()
	if err != nil {
		return nil, err
	}
	hours := cfg.SyntheticHours
	if hours == 0 {
		hours = 24
	}
	gen := dataset.DefaultGenConfig(0.5, dcfg.Seed+6)
	gen.Duration = time.Duration(hours) * time.Hour
	ds, err := dataset.Generate(gen)
	if err != nil {
		return nil, err
	}
	det, err := core.TrainDetector(ds, dcfg)
	if err != nil {
		return nil, err
	}
	return &Detector{det: det}, nil
}

// TrainFromCSV fits a detector on a dataset in the repository's CSV schema
// (see dataset.Header; `genset` emits it).
func TrainFromCSV(path string, cfg TrainConfig) (*Detector, error) {
	dcfg, err := cfg.detectorConfig()
	if err != nil {
		return nil, err
	}
	ds, err := dataset.LoadCSV(path)
	if err != nil {
		return nil, err
	}
	det, err := core.TrainDetector(ds, dcfg)
	if err != nil {
		return nil, err
	}
	return &Detector{det: det}, nil
}

// Load reads a detector bundle written by Save.
func Load(path string) (*Detector, error) {
	det, err := core.LoadDetectorFile(path)
	if err != nil {
		return nil, err
	}
	return &Detector{det: det}, nil
}

// LoadBytes reads a detector bundle from memory — e.g. one fetched from a
// serving node with Client.FetchModel, the cluster's model-distribution
// channel.
func LoadBytes(b []byte) (*Detector, error) {
	det, err := core.LoadDetector(bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	return &Detector{det: det}, nil
}

// Save writes the detector bundle to path.
func (d *Detector) Save(path string) error { return d.det.SaveFile(path) }

// Features returns the feature-set name the detector was trained on.
func (d *Detector) Features() string { return d.det.Features.String() }

// Score classifies one sample on the direct single-record path. For many
// concurrent callers sharing one detector, use NewEngine — it does not
// allocate and is bit-identical to this path.
func (d *Detector) Score(s Sample) (Result, error) {
	rec, err := s.record()
	if err != nil {
		return Result{}, err
	}
	p, label := d.det.PredictRecord(&rec)
	return Result{P: p, Occupied: label == 1}, nil
}

// PredictRecord exposes the internal predictor contract so in-module code
// can hand a *Detector straight to the streaming runtime.
func (d *Detector) PredictRecord(r *dataset.Record) (float64, int) {
	return d.det.PredictRecord(r)
}

// Precision values EngineConfig and ServeConfig accept. PrecisionF64 is
// bit-identical to Detector.Score and the default; PrecisionF32 serves
// through float32 arenas (the fast path); PrecisionI8 serves int8-quantised
// weights (the small path). Reduced precisions keep scoring deterministic —
// a sample's probability never depends on what else is being scored — but
// diverge boundedly from the f64 reference (see DESIGN.md §12).
const (
	PrecisionF64 = "f64"
	PrecisionF32 = "f32"
	PrecisionI8  = "int8"
)

// Kernel returns the compute kernel every score in this process runs on:
// "avx2" when the hand-written AVX2+FMA kernels were selected at startup,
// "generic" for the portable pure-Go kernels (DESIGN.md §14). The selection
// is made once per process (hardware detection, overridable via the
// OCCU_KERNEL environment variable) and never changes.
func Kernel() string { return cpukit.Active().String() }

// KernelDescription returns the one-line selection report servers print at
// startup, e.g. "avx2 (auto-detected; cpu avx2+fma: true)".
func KernelDescription() string { return cpukit.Describe() }

// KernelError reports a failed kernel selection — OCCU_KERNEL forced a
// kernel this CPU cannot run, or named an unknown kernel. The process falls
// back to generic in that case; servers should treat a non-nil error as
// fatal at startup rather than silently serving slower than asked.
func KernelError() error { return cpukit.SelectionError() }

// EngineConfig controls NewEngine. The zero value scores in float64.
type EngineConfig struct {
	// Precision selects the scorer arithmetic: PrecisionF64 (default),
	// PrecisionF32 or PrecisionI8.
	Precision string
}

// Validate reports whether the configuration is usable.
func (c EngineConfig) Validate() error {
	_, err := infer.ParsePrecision(c.Precision)
	return err
}

// Engine serves one detector to many concurrent callers: the network is
// lowered once, and each call scores on its own goroutine with a pooled
// arena, allocation-free, with results bit-identical to Detector.Score at
// PrecisionF64.
type Engine struct {
	eng *core.DetectorEngine
}

// NewEngine wraps the detector in a serving engine.
func NewEngine(d *Detector, cfg EngineConfig) (*Engine, error) {
	if d == nil {
		return nil, errNilDetector
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	eng, err := core.NewDetectorEngine(d.det, core.ServeConfig{Precision: cfg.Precision})
	if err != nil {
		return nil, err
	}
	return &Engine{eng: eng}, nil
}

// Score classifies one sample through the shared engine.
func (e *Engine) Score(s Sample) (Result, error) {
	rec, err := s.record()
	if err != nil {
		return Result{}, err
	}
	p, label := e.eng.PredictRecord(&rec)
	return Result{P: p, Occupied: label == 1}, nil
}

// PredictRecord exposes the internal predictor contract (see
// Detector.PredictRecord).
func (e *Engine) PredictRecord(r *dataset.Record) (float64, int) {
	return e.eng.PredictRecord(r)
}

var errNilDetector = errors.New("occupancy: nil detector")
