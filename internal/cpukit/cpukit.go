// Package cpukit selects the numeric kernel implementation the process
// runs: hand-rolled CPUID feature detection (no cgo, no dependencies) plus
// one process-wide kernel choice the SIMD dispatch in internal/tensor reads.
//
// Three kernel tiers exist, each a superset of the one before:
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
//   - KernelAVX512 — the AVX2 tier with its two float64 matmul kernels on
//     512-bit registers (AVX512F only, still no FMA: every trained bit
//     stays the same); every other kernel keeps its AVX2 code.
//
// The choice is made once, at process start, from two inputs:
//
//   - hardware: CPUID leaf 1 (FMA, OSXSAVE), leaf 7 (AVX2, AVX512F) and
//     XGETBV (the OS actually saves YMM/ZMM state — a hypervisor can expose
//     the instructions while the kernel never enables them);
//   - the OCCU_KERNEL environment variable: "generic" forces the portable
//     kernels on any machine (this is how CI keeps the fallback path from
//     rotting), "avx2" and "avx512" force that tier (refused at startup
//     when the CPU cannot run it — a typo'd deployment should fail loudly,
//     not silently serve at a third of the expected throughput; "avx2" on
//     AVX-512 hardware keeps the ymm kernels tested), and unset or "auto"
//     picks the best tier the hardware supports.
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

// Kernel identifies one numeric kernel tier. The values are ordered: each
// tier runs every kernel of the tiers below it, so a dispatch site that
// needs the AVX2 code tests Active() >= KernelAVX2.
type Kernel uint8

const (
	// KernelGeneric is the portable pure-Go implementation.
	KernelGeneric Kernel = iota
	// KernelAVX2 is the AVX2+FMA assembly implementation (amd64 only).
	KernelAVX2
	// KernelAVX512 is KernelAVX2 plus the AVX512F float64 matmul kernels.
	KernelAVX512
)

var kernelNames = [...]string{KernelGeneric: "generic", KernelAVX2: "avx2", KernelAVX512: "avx512"}

// String returns the name ParseKernel accepts.
func (k Kernel) String() string { return kernelNames[k] }

// ParseKernel maps an OCCU_KERNEL value onto a Kernel request. The empty
// string and "auto" mean hardware auto-detection; anything unrecognised is
// an error so a typo cannot silently select the wrong path.
func ParseKernel(s string) (k Kernel, auto bool, err error) {
	if s == "" || s == "auto" {
		return KernelGeneric, true, nil
	}
	for k, name := range kernelNames {
		if s == name {
			return Kernel(k), false, nil
		}
	}
	return 0, false, fmt.Errorf("cpukit: unknown %s value %q (want auto, generic, avx2 or avx512)", EnvKernel, s)
}

// selectKernel resolves (env value, the best tier the hardware runs) to the
// kernel the process will run plus a human-readable reason. It is the pure
// core of the init-time selection, split out so tests can cover every
// combination without mutating process state.
func selectKernel(env string, hw Kernel) (Kernel, string, error) {
	req, auto, err := ParseKernel(env)
	if err != nil {
		return KernelGeneric, "", err
	}
	switch {
	case auto && hw == KernelGeneric:
		return KernelGeneric, "cpu lacks avx2+fma", nil
	case auto:
		return hw, "auto-detected", nil
	case req > hw:
		return KernelGeneric, "", fmt.Errorf("cpukit: %s=%s but this CPU cannot run the %s kernels", EnvKernel, env, env)
	default:
		return req, EnvKernel + "=" + env, nil
	}
}

var (
	active   Kernel
	reason   string
	selErr   error
	hardware Kernel
)

func init() {
	hardware = detect()
	active, reason, selErr = selectKernel(os.Getenv(EnvKernel), hardware)
}

// Active returns the kernel this process selected at startup. The value
// never changes after init: every kernel dispatch site reads it once into a
// package-level bool, so a process serves all its traffic through one
// implementation.
func Active() Kernel { return active }

// SelectionError returns the startup selection failure, if any: an
// unparseable OCCU_KERNEL value, or a forced tier the hardware cannot run.
// While it is non-nil the process runs KernelGeneric; CLIs check it at
// startup and exit rather than serve on a silently-downgraded path.
func SelectionError() error { return selErr }

// Describe returns the one-line startup report the CLIs log, e.g.
// "avx512 (auto-detected; cpu avx2+fma: true, avx512f: true)".
func Describe() string {
	return fmt.Sprintf("%s (%s; cpu avx2+fma: %v, avx512f: %v)", active, reason, hardware >= KernelAVX2, hardware >= KernelAVX512)
}
