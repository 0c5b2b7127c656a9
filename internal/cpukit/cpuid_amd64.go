//go:build amd64

package cpukit

// cpuid executes CPUID with the given leaf (EAX) and subleaf (ECX).
//
//go:noescape
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads XCR0, the extended control register that records which
// vector register state the OS saves on context switch.
//
//go:noescape
func xgetbv0() (eax, edx uint32)

// detect performs the full capability handshake and returns the best tier
// this CPU and OS can run:
//
//	leaf 1  ECX bit 12 — FMA3
//	leaf 1  ECX bit 27 — OSXSAVE (XGETBV is usable)
//	leaf 1  ECX bit 28 — AVX
//	XCR0    bits 1..2  — the OS saves XMM and YMM state
//	leaf 7  EBX bit 5  — AVX2
//	leaf 7  EBX bit 16 — AVX512F                          (KernelAVX512)
//	XCR0    bits 5..7  — the OS saves opmask and ZMM state (KernelAVX512)
//
// Every check of a tier must pass: AVX2 without OS YMM support faults on the
// first VEX.256 instruction (AVX512F without ZMM support on the first
// EVEX.512 one), which is exactly the failure mode the OSXSAVE/XCR0 steps
// exist to rule out.
func detect() Kernel {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return KernelGeneric
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const fma = 1 << 12
	const osxsave = 1 << 27
	const avx = 1 << 28
	if ecx1&(fma|osxsave|avx) != fma|osxsave|avx {
		return KernelGeneric
	}
	xlo, _ := xgetbv0()
	const xmmYmm = 0x6
	if xlo&xmmYmm != xmmYmm {
		return KernelGeneric
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	const avx512f = 1 << 16
	const opmaskZmm = 0xE0
	switch {
	case ebx7&avx2 == 0:
		return KernelGeneric
	case ebx7&avx512f == 0 || xlo&opmaskZmm != opmaskZmm:
		return KernelAVX2
	}
	return KernelAVX512
}
