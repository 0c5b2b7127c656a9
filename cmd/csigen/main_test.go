package main

import (
	"bytes"
	"flag"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dataset"
)

// TestCSVGolden pins the bytes `csigen -rate 1 -hours 2` writes: an FNV-1a
// hash of the CSV, produced by main itself (flags, streaming flushes and
// all), the same under either OCCU_KERNEL setting. A change to the
// simulator's physics or to the CSV format moves it on purpose; say so where
// it lands.
func TestCSVGolden(t *testing.T) {
	out := filepath.Join(t.TempDir(), "trace.csv")
	args := os.Args
	defer func() { os.Args = args }()
	os.Args = []string{"csigen", "-rate", "1", "-hours", "2", "-q", "-out", out}
	flag.CommandLine = flag.NewFlagSet("csigen", flag.ExitOnError)
	main()
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(b)
	const want = 0x7c21476af517abfc
	if h.Sum64() != want {
		t.Fatalf("%d CSV bytes hashing to %#016x, want %#016x", len(b), h.Sum64(), uint64(want))
	}
}

func TestLineBufferAfterHeader(t *testing.T) {
	var b lineBuffer
	if _, err := b.Write([]byte("header line\nrow1\nrow2\n")); err != nil {
		t.Fatal(err)
	}
	got := string(b.AfterHeader())
	if got != "row1\nrow2\n" {
		t.Fatalf("AfterHeader got %q", got)
	}
	var empty lineBuffer
	if empty.AfterHeader() != nil {
		t.Fatal("no newline should yield nil")
	}
}

// TestChunkedFlushMatchesSingleWrite verifies the streaming CSV append path
// (used for long traces) produces byte-identical output to a one-shot
// WriteCSV.
func TestChunkedFlushMatchesSingleWrite(t *testing.T) {
	cfg := dataset.DefaultGenConfig(1, 5)
	cfg.Duration = 90 * 1e9 // 90 s
	d, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var oneShot bytes.Buffer
	if err := d.WriteCSV(&oneShot); err != nil {
		t.Fatal(err)
	}

	// Chunked: header chunk then header-stripped appends, as main does.
	var chunked bytes.Buffer
	chunkSize := 25
	for start := 0; start < d.Len(); start += chunkSize {
		end := start + chunkSize
		if end > d.Len() {
			end = d.Len()
		}
		part := dataset.Dataset{Records: d.Records[start:end]}
		var lb lineBuffer
		if err := part.WriteCSV(&lb); err != nil {
			t.Fatal(err)
		}
		if start == 0 {
			chunked.Write(lb.data)
		} else {
			chunked.Write(lb.AfterHeader())
		}
	}
	if !bytes.Equal(oneShot.Bytes(), chunked.Bytes()) {
		t.Fatal("chunked CSV output diverges from one-shot output")
	}
}
