// Package atomicfile is the one durable-file module under the model bundle,
// the training checkpoints and the frame log: a file holds what its writer
// wrote, synced, or what it held before; the directory entries a writer
// creates, renames or removes are synced here; and checksummed files share
// one envelope. It imports nothing of the repository.
package atomicfile

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// HeaderLen is the sealed envelope's header, shared by the feed snapshots
// and the training checkpoints, little-endian: magic u32 | format version
// u32 | body length u32 | Castagnoli CRC32 of the body u32. The body follows.
const HeaderLen = 16

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Seal wraps body, which must be under 4 GiB, in the envelope.
func Seal(magic, version uint32, body []byte) []byte {
	le := binary.LittleEndian
	b := make([]byte, HeaderLen, HeaderLen+len(body))
	le.PutUint32(b, magic)
	le.PutUint32(b[4:], version)
	le.PutUint32(b[8:], uint32(len(body)))
	le.PutUint32(b[12:], crc32.Checksum(body, castagnoli))
	return append(b, body...)
}

// Unseal checks that file is a whole envelope of this magic and version —
// header, length, then CRC — and returns its body, which aliases file.
func Unseal(magic, version uint32, file []byte) ([]byte, error) {
	le := binary.LittleEndian
	if len(file) < HeaderLen {
		return nil, fmt.Errorf("atomicfile: %d bytes, shorter than the %d-byte header", len(file), HeaderLen)
	}
	if m, v := le.Uint32(file), le.Uint32(file[4:]); m != magic || v != version {
		return nil, fmt.Errorf("atomicfile: magic %#08x version %d, want %#08x version %d", m, v, magic, version)
	}
	body := file[HeaderLen:]
	if int64(le.Uint32(file[8:])) != int64(len(body)) || crc32.Checksum(body, castagnoli) != le.Uint32(file[12:]) {
		return nil, fmt.Errorf("atomicfile: the %d-byte body fails its length or CRC check", len(body))
	}
	return body, nil
}

// ReadSealed reads the envelope at path and returns its body. A file longer
// than the header and maxBody is refused unread, so no file costs more
// memory; a missing one answers an error matching fs.ErrNotExist.
func ReadSealed(path string, magic, version uint32, maxBody int) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if fi.Size() > int64(HeaderLen+maxBody) {
		return nil, fmt.Errorf("atomicfile: %s holds %d bytes, over the %d-byte cap", path, fi.Size(), HeaderLen+maxBody)
	}
	file := make([]byte, fi.Size())
	if _, err := io.ReadFull(f, file); err != nil {
		return nil, err
	}
	return Unseal(magic, version, file)
}

// WriteFile makes path hold data, through Write.
func WriteFile(path string, data []byte) error {
	return Write(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// Write makes path hold what fill writes, or leaves it as it was: fill
// writes a temporary file beside path (named with a '+', which no feed id
// the server accepts contains), which is fsynced, closed and renamed over
// path by Rename. On any error the temporary file is removed.
func Write(path string, fill func(io.Writer) error) error {
	tmp := filepath.Join(filepath.Dir(path), "+"+filepath.Base(path)+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err == nil {
		err = CloseSynced(f, fill)
	}
	if err == nil {
		if err = Rename(tmp, path); err == nil {
			return nil
		}
	}
	os.Remove(tmp)
	return err
}

// Rename moves src over dst, a file or a directory, and fsyncs dst's
// directory, so the move survives a power loss.
func Rename(src, dst string) error {
	if err := os.Rename(src, dst); err != nil {
		return err
	}
	return SyncDir(filepath.Dir(dst))
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

// SyncDir fsyncs a directory, making the entries created, renamed or
// removed in it durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	return CloseSynced(d, nil)
}
