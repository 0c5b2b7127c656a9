package atomicfile

import (
	"errors"
	"io"
	"os"
	"path/filepath"
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
