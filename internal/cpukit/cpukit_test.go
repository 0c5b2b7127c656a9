package cpukit

import (
	"os"
	"strings"
	"testing"
)

func TestParseKernel(t *testing.T) {
	cases := []struct {
		in   string
		want Kernel
		auto bool
		ok   bool
	}{
		{"", KernelGeneric, true, true},
		{"auto", KernelGeneric, true, true},
		{"generic", KernelGeneric, false, true},
		{"avx2", KernelAVX2, false, true},
		{"avx512", KernelAVX512, false, true},
		{"AVX2", 0, false, false},
		{"avx512f", 0, false, false},
		{"sse", 0, false, false},
	}
	for _, c := range cases {
		k, auto, err := ParseKernel(c.in)
		if (err == nil) != c.ok {
			t.Fatalf("ParseKernel(%q) err = %v, want ok=%v", c.in, err, c.ok)
		}
		if err != nil {
			continue
		}
		if k != c.want || auto != c.auto {
			t.Fatalf("ParseKernel(%q) = (%v, %v), want (%v, %v)", c.in, k, auto, c.want, c.auto)
		}
	}
}

// TestSelectKernel covers the full (env, avx2, avx512) selection matrix —
// the pure core of the init-time choice. The hardware column is the best
// tier detect reports: AVX-512 hardware also runs AVX2, and a CPU with
// neither runs only generic.
func TestSelectKernel(t *testing.T) {
	cases := []struct {
		env  string
		hw   Kernel
		want Kernel
		ok   bool
	}{
		{"", KernelAVX512, KernelAVX512, true},
		{"", KernelAVX2, KernelAVX2, true},
		{"", KernelGeneric, KernelGeneric, true},
		{"auto", KernelAVX512, KernelAVX512, true},
		{"auto", KernelAVX2, KernelAVX2, true},
		{"auto", KernelGeneric, KernelGeneric, true},
		{"generic", KernelAVX512, KernelGeneric, true},
		{"generic", KernelAVX2, KernelGeneric, true},
		{"generic", KernelGeneric, KernelGeneric, true},
		{"avx2", KernelAVX512, KernelAVX2, true}, // the ymm kernels on AVX-512 hardware
		{"avx2", KernelAVX2, KernelAVX2, true},
		{"avx2", KernelGeneric, KernelGeneric, false}, // forced fast path must fail loudly
		{"avx512", KernelAVX512, KernelAVX512, true},
		{"avx512", KernelAVX2, KernelGeneric, false}, // no silent step down to avx2
		{"avx512", KernelGeneric, KernelGeneric, false},
		{"bogus", KernelAVX512, KernelGeneric, false},
	}
	for _, c := range cases {
		k, reason, err := selectKernel(c.env, c.hw)
		if (err == nil) != c.ok {
			t.Fatalf("selectKernel(%q, %v) err = %v, want ok=%v", c.env, c.hw, err, c.ok)
		}
		if k != c.want {
			t.Fatalf("selectKernel(%q, %v) = %v, want %v", c.env, c.hw, k, c.want)
		}
		if err == nil && reason == "" {
			t.Fatalf("selectKernel(%q, %v): empty reason", c.env, c.hw)
		}
		if err != nil && !strings.Contains(err.Error(), c.env) {
			t.Fatalf("selectKernel(%q, %v): error %q does not name the value", c.env, c.hw, err)
		}
	}
}

// TestActiveConsistent pins the init-time selection to the same pure
// function the table above covers: whatever environment and hardware this
// test process actually has, Active/SelectionError must equal
// selectKernel's verdict on them. Run under OCCU_KERNEL=generic (the CI
// kernel-parity job) this also proves the override reached the dispatch.
func TestActiveConsistent(t *testing.T) {
	wantK, _, wantErr := selectKernel(os.Getenv(EnvKernel), hardware)
	if Active() != wantK {
		t.Fatalf("Active() = %v, want %v", Active(), wantK)
	}
	if (SelectionError() == nil) != (wantErr == nil) {
		t.Fatalf("SelectionError() = %v, want err=%v", SelectionError(), wantErr)
	}
	if env := os.Getenv(EnvKernel); env != "" && env != "auto" && Active().String() != env {
		t.Fatalf("%s=%s but Active() = %v", EnvKernel, env, Active())
	}
}

func TestDescribe(t *testing.T) {
	d := Describe()
	for _, want := range []string{Active().String() + " (", "avx2+fma: ", "avx512f: "} {
		if !strings.Contains(d, want) {
			t.Fatalf("Describe() = %q lacks %q", d, want)
		}
	}
}

func TestKernelString(t *testing.T) {
	for k, want := range map[Kernel]string{KernelGeneric: "generic", KernelAVX2: "avx2", KernelAVX512: "avx512"} {
		if got := k.String(); got != want {
			t.Fatalf("Kernel(%d).String() = %q, want %q", k, got, want)
		}
	}
}
