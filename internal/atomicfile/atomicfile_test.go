package atomicfile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// TestWriteFileAtomic: a failed fill leaves the old file byte-identical and
// no temporary file; a good one replaces it.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bundle")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	entries := func() int {
		es, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		return len(es)
	}
	boom := errors.New("boom")
	err := Write(path, func(w io.Writer) error {
		w.Write([]byte("half a new"))
		return boom
	})
	if got, _ := os.ReadFile(path); err != boom || string(got) != "old" || entries() != 1 {
		t.Fatalf("failed write: err %v, file %q, %d entries", err, got, entries())
	}
	if err := Write(path, func(w io.Writer) error { _, err := w.Write([]byte("new")); return err }); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "new" || entries() != 1 {
		t.Fatalf("good write: file %q, %d entries", got, entries())
	}
	if fi, err := os.Stat(path); err != nil || fi.Mode().Perm() != 0o644 {
		t.Fatalf("good write: mode %v (%v), want 0644", fi.Mode(), err)
	}
}

const (
	fuzzMagic   = 0x5A5A4654
	fuzzVersion = 3
	fuzzCap     = 256
)

// FuzzUnseal: no input panics Unseal or ReadSealed; an input Unseal accepts
// re-seals to its own bytes; ReadSealed of the same bytes as a file agrees
// with Unseal up to its cap and refuses what lies past it; and reading
// allocates no more than the cap, whatever the input's length or its header
// claims.
func FuzzUnseal(f *testing.F) {
	good := Seal(fuzzMagic, fuzzVersion, []byte("a body"))
	f.Add(good)
	f.Add(Seal(fuzzMagic, fuzzVersion, nil))
	f.Add(Seal(fuzzMagic, fuzzVersion, make([]byte, fuzzCap)))
	f.Add(Seal(fuzzMagic, fuzzVersion, make([]byte, fuzzCap+1)))
	f.Add(Seal(fuzzMagic, fuzzVersion+1, []byte("a body")))
	f.Add(good[:HeaderLen-1])
	f.Add(good[:len(good)-1])
	f.Add(append(append([]byte(nil), good...), 0))
	huge := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(huge[8:], 1<<32-1) // a length no file holds
	f.Add(huge)
	f.Add(make([]byte, 1<<20))
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, file []byte) {
		body, err := Unseal(fuzzMagic, fuzzVersion, file)
		if err == nil && !bytes.Equal(Seal(fuzzMagic, fuzzVersion, body), file) {
			t.Fatal("an accepted envelope does not re-seal to its bytes")
		}
		path := filepath.Join(dir, "sealed")
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		read, rerr := ReadSealed(path, fuzzMagic, fuzzVersion, fuzzCap)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > HeaderLen+fuzzCap+4096 {
			t.Fatalf("reading a %d-byte file allocated %d bytes past a %d-byte cap", len(file), grew, fuzzCap)
		}
		if fits := len(file) <= HeaderLen+fuzzCap; (rerr == nil) != (err == nil && fits) || !bytes.Equal(read, body[:len(read)]) {
			t.Fatalf("ReadSealed answered %d bytes, %v; Unseal %d bytes, %v", len(read), rerr, len(body), err)
		}
	})
}

// TestSealLayout pins the envelope byte for byte: the feed snapshots keep
// the layout they had before the envelope was shared.
func TestSealLayout(t *testing.T) {
	got := Seal(0x504E534F, 1, []byte("body"))
	want := []byte{'O', 'S', 'N', 'P', 1, 0, 0, 0, 4, 0, 0, 0}
	want = binary.LittleEndian.AppendUint32(want, crc32.Checksum([]byte("body"), crc32.MakeTable(crc32.Castagnoli)))
	if want = append(want, "body"...); !bytes.Equal(got, want) {
		t.Fatalf("Seal = % x, want % x", got, want)
	}
	if _, err := ReadSealed(filepath.Join(t.TempDir(), "missing"), 1, 1, 1); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("a missing file answers %v, want fs.ErrNotExist", err)
	}
}
