package main

import (
	"flag"
	"hash/fnv"
	"io"
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
// imputed CSI, degradations and recoveries), the same under either
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
	const want = 0x860d6b0023a0639d
	if h.Sum64() != want {
		t.Fatalf("stdout hashes to %#016x, want %#016x:\n%s", h.Sum64(), uint64(want), out)
	}
}
