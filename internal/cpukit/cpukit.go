// Package cpukit selects the numeric kernel implementation the process
// runs: hand-rolled CPUID feature detection (no cgo, no dependencies) plus
// one process-wide kernel choice the SIMD dispatch in internal/tensor reads.
//
// Two kernels exist:
//
//   - KernelGeneric — the portable pure-Go kernels, bit-identical on every
//     platform. This is the reproduction reference for the float64 path and
//     the fallback everywhere the hardware or the operator rules AVX2 out.
//   - KernelAVX2 — hand-written AVX2 assembly (internal/tensor/simd_amd64.s)
//     for the float32 and int8 inference hot paths, for the float64
//     matmuls training runs on, and for the channel simulator's ray sum
//     (tensor.PhasorSumInto, math.Sincos four lanes at a time). The
//     inference kernels use vector FMA, which reorders floating-point sums,
//     so they are admitted the same way reduced precision was (DESIGN.md
//     §12): bounded divergence against the generic reference with zero
//     decision flips, enforced by core.RunDivergence and the tensor parity
//     tests. The float64 kernels use no FMA and keep the generic order, so
//     training and every generated record are bit-identical under either
//     kernel (DESIGN.md §14).
//
// The choice is made once, at process start, from two inputs:
//
//   - hardware: CPUID leaf 1 (FMA, OSXSAVE), leaf 7 (AVX2) and XGETBV
//     (the OS actually saves YMM state — a hypervisor can expose AVX2
//     while the kernel never enables it);
//   - the OCCU_KERNEL environment variable: "generic" forces the portable
//     kernels on any machine (this is how CI keeps the fallback path from
//     rotting), "avx2" asserts the fast path (refused at startup when the
//     CPU cannot run it — a typo'd deployment should fail loudly, not
//     silently serve at a third of the expected throughput), and unset or
//     "auto" picks AVX2 whenever the hardware supports it.
//
// One process-wide choice — rather than a per-call flag — keeps the
// determinism story auditable: every score a process produces comes from
// exactly one kernel, reported at startup, in /metrics and in
// core.DivergenceResult.
package cpukit

import (
	"fmt"
	"os"
)

// EnvKernel is the environment variable that overrides kernel selection.
const EnvKernel = "OCCU_KERNEL"

// Kernel identifies one numeric kernel implementation.
type Kernel uint8

const (
	// KernelGeneric is the portable pure-Go implementation.
	KernelGeneric Kernel = iota
	// KernelAVX2 is the AVX2+FMA assembly implementation (amd64 only).
	KernelAVX2
)

// String returns the name ParseKernel accepts.
func (k Kernel) String() string {
	if k == KernelAVX2 {
		return "avx2"
	}
	return "generic"
}

// ParseKernel maps an OCCU_KERNEL value onto a Kernel request. The empty
// string and "auto" mean hardware auto-detection; anything unrecognised is
// an error so a typo cannot silently select the wrong path.
func ParseKernel(s string) (k Kernel, auto bool, err error) {
	switch s {
	case "", "auto":
		return KernelGeneric, true, nil
	case "generic":
		return KernelGeneric, false, nil
	case "avx2":
		return KernelAVX2, false, nil
	}
	return 0, false, fmt.Errorf("cpukit: unknown %s value %q (want auto, generic or avx2)", EnvKernel, s)
}

// selectKernel resolves (env value, hardware capability) to the kernel the
// process will run plus a human-readable reason. It is the pure core of the
// init-time selection, split out so tests can cover every combination
// without mutating process state.
func selectKernel(env string, hwAVX2 bool) (Kernel, string, error) {
	req, auto, err := ParseKernel(env)
	if err != nil {
		return KernelGeneric, "", err
	}
	switch {
	case auto && hwAVX2:
		return KernelAVX2, "auto-detected", nil
	case auto:
		return KernelGeneric, "cpu lacks avx2+fma", nil
	case req == KernelAVX2 && !hwAVX2:
		return KernelGeneric, "", fmt.Errorf("cpukit: %s=avx2 but this CPU cannot run the AVX2+FMA kernels", EnvKernel)
	default:
		return req, EnvKernel + "=" + env, nil
	}
}

var (
	active   Kernel
	reason   string
	selErr   error
	hardware bool
)

func init() {
	hardware = detectAVX2FMA()
	active, reason, selErr = selectKernel(os.Getenv(EnvKernel), hardware)
}

// Active returns the kernel this process selected at startup. The value
// never changes after init: every kernel dispatch site reads it once into a
// package-level bool, so a process serves all its traffic through one
// implementation.
func Active() Kernel { return active }

// SelectionError returns the startup selection failure, if any: an
// unparseable OCCU_KERNEL value, or OCCU_KERNEL=avx2 on hardware that cannot
// run it. While it is non-nil the process runs KernelGeneric; CLIs check it
// at startup and exit rather than serve on a silently-downgraded path.
func SelectionError() error { return selErr }

// Describe returns the one-line startup report the CLIs log, e.g.
// "avx2 (auto-detected; cpu avx2+fma: true)".
func Describe() string {
	return fmt.Sprintf("%s (%s; cpu avx2+fma: %v)", active, reason, hardware)
}
