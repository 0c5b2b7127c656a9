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
		{"AVX2", 0, false, false},
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

// TestSelectKernel covers the full (env, hardware) selection matrix — the
// pure core of the init-time choice.
func TestSelectKernel(t *testing.T) {
	cases := []struct {
		env  string
		hw   bool
		want Kernel
		ok   bool
	}{
		{"", true, KernelAVX2, true},
		{"", false, KernelGeneric, true},
		{"auto", true, KernelAVX2, true},
		{"auto", false, KernelGeneric, true},
		{"generic", true, KernelGeneric, true},
		{"generic", false, KernelGeneric, true},
		{"avx2", true, KernelAVX2, true},
		{"avx2", false, KernelGeneric, false}, // forced fast path must fail loudly
		{"bogus", true, KernelGeneric, false},
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
	if os.Getenv(EnvKernel) == "generic" && Active() != KernelGeneric {
		t.Fatalf("OCCU_KERNEL=generic but Active() = %v", Active())
	}
}

func TestDescribe(t *testing.T) {
	d := Describe()
	if !strings.Contains(d, Active().String()) {
		t.Fatalf("Describe() = %q does not name the active kernel %q", d, Active())
	}
}

func TestKernelString(t *testing.T) {
	if KernelGeneric.String() != "generic" || KernelAVX2.String() != "avx2" {
		t.Fatalf("Kernel.String: %q / %q", KernelGeneric, KernelAVX2)
	}
}
