//go:build !amd64

package cpukit

// detect on non-amd64 architectures: the AVX2 and AVX-512 kernels do not
// exist, so the hardware tier is KernelGeneric (OCCU_KERNEL=avx2 or avx512
// fails loudly, same as an amd64 machine without the extensions).
func detect() Kernel { return KernelGeneric }
