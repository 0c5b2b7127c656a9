package main

import (
	"flag"
	"hash/fnv"
	"io"
	"math"
	"os"
	"regexp"
	"testing"
)

// kernelLine matches the start-up line naming the compute kernel, the only
// part of main's output that depends on the machine.
var kernelLine = regexp.MustCompile(`compute kernel .*`)

// TestStreamGolden pins what `occupredict -seed 7 -fault 1 -smooth 3
// -epochs 1 -minutes 2` prints: an FNV-1a hash of main's stdout with the
// kernel line blanked — on-the-fly training of both detectors, the fault
// channel, and every runtime path (primary, fallback and held frames,
// imputed CSI and env), the same under either
// OCCU_KERNEL setting. A change that moves a decision moves it on purpose;
// say so where it lands.
func TestStreamGolden(t *testing.T) {
	stdout, args := os.Stdout, os.Args
	defer func() { os.Stdout, os.Args = stdout, args }()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		done <- b
	}()
	os.Stdout = w
	os.Args = []string{"occupredict", "-seed", "7", "-fault", "1", "-smooth", "3", "-epochs", "1", "-minutes", "2"}
	flag.CommandLine = flag.NewFlagSet("occupredict", flag.ExitOnError)
	main()
	w.Close()
	out := kernelLine.ReplaceAll(<-done, []byte("compute kernel X"))
	h := fnv.New64a()
	h.Write(out)
	const want = 0x89ee9e42e81ba6d6
	if h.Sum64() != want {
		t.Fatalf("stdout hashes to %#016x, want %#016x:\n%s", h.Sum64(), uint64(want), out)
	}
}

// TestValidateFlags: every float flag refuses NaN and ±Inf up front — a
// NaN -fault would otherwise run a silently clean stream, and a NaN
// -minutes fail only after both detectors had trained.
func TestValidateFlags(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name                     string
		rate, minutes, intensity float64
		smooth                   int
		ok                       bool
	}{
		{"defaults", 20, 10, 0, 0, true},
		{"faulty smoothed", 20, 2, 1, 3, true},
		{"rate 0", 0, 10, 0, 0, false},
		{"rate NaN", nan, 10, 0, 0, false},
		{"rate +Inf", inf, 10, 0, 0, false},
		{"rate -Inf", -inf, 10, 0, 0, false},
		{"minutes negative", 20, -1, 0, 0, false},
		{"minutes NaN", 20, nan, 0, 0, false},
		{"minutes +Inf", 20, inf, 0, 0, false},
		{"fault negative", 20, 10, -0.5, 0, false},
		{"fault NaN", 20, 10, nan, 0, false},
		{"fault +Inf", 20, 10, inf, 0, false},
		{"fault -Inf", 20, 10, -inf, 0, false},
		{"smooth negative", 20, 10, 0, -1, false},
	} {
		err := validateFlags(tc.rate, tc.minutes, tc.intensity, tc.smooth, "")
		if (err == nil) != tc.ok {
			t.Errorf("%s: %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
	if err := validateFlags(20, 10, 0, 0, "no-such-bundle.bin"); err == nil {
		t.Error("a missing -model passed")
	}
}
