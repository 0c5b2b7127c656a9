// Package infer holds what serving needs besides the scoring itself: the
// model-version registry (Registry: install, activate, pin, resolve) and the
// precision knob every serving config shares. Scoring lives in
// core.DetectorEngine, which lowers a detector once and scores each record
// on the caller's goroutine.
package infer

import (
	"fmt"

	"repro/internal/nn"
)

// Precision selects the numeric representation serving scores in.
// PrecisionF64 is the bit-exact reproduction reference and the default
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
