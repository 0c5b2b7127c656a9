// Package atomicfile is the one durable-file writer under the model bundle,
// the training checkpoints and the frame log: a file either holds what its
// writer wrote, synced to the device, or what it held before. It imports
// nothing of the repository, so the training code can use it without
// pulling in the serving layers.
package atomicfile

import (
	"io"
	"os"
	"path/filepath"
)

// Write makes path hold what fill writes, or leaves it as it was: fill
// writes a temporary file beside path (named with a '+', which no feed id
// the server accepts contains), which is fsynced, closed and renamed over
// path, and the directory is fsynced. On any error the temporary file is
// removed.
func Write(path string, fill func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp := filepath.Join(dir, "+"+filepath.Base(path)+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err == nil {
		err = CloseSynced(f, fill)
	}
	if err == nil {
		if err = os.Rename(tmp, path); err == nil {
			return SyncDir(dir)
		}
	}
	os.Remove(tmp)
	return err
}

// CloseSynced has fill, when non-nil, write f, then fsyncs and closes it; f
// is closed whatever happens.
func CloseSynced(f *os.File, fill func(io.Writer) error) (err error) {
	if fill != nil {
		err = fill(f)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// SyncDir fsyncs a directory, making the entries created or renamed in it
// durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	return CloseSynced(d, nil)
}
