package framelog

import (
	"archive/tar"
	"bytes"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"

	"repro/internal/atomicfile"
)

// Archive: a feed's log directory as one stream, the format a drain hand-off
// moves a feed in. It is a tar stream (archive/tar) of regular files, each
// exactly as it lies on disk — nothing decoded, nothing re-encoded, every
// record still under its own CRC:
//
//	snapshot        the feed's snapshot, when it has one, first
//	%08d.flog       every segment, in order
//	trailer         "files N bytes B crc32c C\n": how many files came before
//	                it, their total size, and the Castagnoli CRC of their
//	                bytes in stream order
//
// An archive that ends before its trailer, or whose trailer disagrees with
// what came before it, was cut short or damaged in transit and is refused.
const (
	trailerName   = "trailer"
	maxTrailerLen = 128
)

// ErrBadArchive marks an Import refused for its input — not a complete,
// well-formed archive of a feed's log — rather than for the disk under it.
var ErrBadArchive = errors.New("framelog: not a complete feed archive")

// Export writes the feed's log directory under root to w as an archive. The
// log must stay still while it runs: the server exports only a closed feed on
// a draining node, where nothing can reopen it. An error after the first
// write leaves the archive without its trailer, which Import refuses.
func Export(w io.Writer, root, feed string) error {
	if err := validFeedName(feed); err != nil {
		return err
	}
	dir := feedDir(root, feed)
	segs, err := listSegments(dir)
	if err != nil {
		return err
	}
	var names []string
	if _, err := os.Stat(filepath.Join(dir, snapshotName)); err == nil {
		names = append(names, snapshotName)
	} else if !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	for _, n := range segs {
		names = append(names, segmentName(n))
	}
	tw := tar.NewWriter(w)
	sum := crc32.New(crcTable)
	var total int64
	for _, name := range names {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		fi, err := f.Stat()
		if err == nil {
			err = writeEntry(tw, name, fi.Size(), io.TeeReader(f, sum))
		}
		f.Close()
		if err != nil {
			return err
		}
		total += fi.Size()
	}
	t := trailer(len(names), total, sum)
	if err := writeEntry(tw, trailerName, int64(len(t)), bytes.NewReader(t)); err != nil {
		return err
	}
	return tw.Close()
}

// writeEntry writes size bytes from r as the regular file name.
func writeEntry(tw *tar.Writer, name string, size int64, r io.Reader) error {
	if err := tw.WriteHeader(&tar.Header{Name: name, Mode: 0o644, Size: size, Typeflag: tar.TypeReg}); err != nil {
		return err
	}
	_, err := io.CopyN(tw, r, size)
	return err
}

// trailer is the body of the trailer entry for files whose bytes sum saw.
func trailer(files int, total int64, sum hash.Hash32) []byte {
	return fmt.Appendf(nil, "files %d bytes %d crc32c %08x\n", files, total, sum.Sum32())
}

// Import makes the archive r carries the feed's log directory under root,
// whole or not at all. The entries are written into a staging directory
// beside the feed's — named with a '+', which no feed id the server accepts
// contains — and only names framelog writes are accepted: the snapshot, at
// most its size cap, then segments in ascending order, each once and as a
// regular file. accept, when non-nil, is handed the archive's snapshot as
// soon as it has been read, before any segment, if it parses; its error
// refuses the archive. Once the trailer checks out and the segments pass the
// CRC walk recovery would make, every file and the staging directory are
// fsynced and the directory is renamed into place by atomicfile.Rename. Nothing
// is left behind on any error. A feed that already has a directory is refused
// with an error matching fs.ErrExist; callers serialise an import with
// everything else that creates the feed's directory. Input that is not a
// complete archive, or whose log is corrupt, fails with ErrBadArchive.
func Import(root, feed string, r io.Reader, accept func(Snapshot) error) (err error) {
	if err := validFeedName(feed); err != nil {
		return err
	}
	dst := feedDir(root, feed)
	if _, err := os.Lstat(dst); !errors.Is(err, fs.ErrNotExist) {
		if err == nil {
			err = fmt.Errorf("framelog: %s already has a log directory: %w", feed, fs.ErrExist)
		}
		return err
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return err
	}
	stage, err := os.MkdirTemp(root, feed+"+import-")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			os.RemoveAll(stage)
		}
	}()
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s: %s", ErrBadArchive, feed, fmt.Sprintf(format, args...))
	}
	tr := tar.NewReader(r)
	sum := crc32.New(crcTable)
	var total int64
	var segs []int
	seen := make(map[string]bool)
	for {
		hdr, err := tr.Next()
		if err != nil {
			return bad("before the trailer: %v", err)
		}
		name := hdr.Name
		if hdr.Typeflag != tar.TypeReg || seen[name] {
			return bad("entry %q: not a regular file, or a duplicate", name)
		}
		seen[name] = true
		if name == trailerName {
			break
		}
		var raw bytes.Buffer // the snapshot, read ahead of accept
		if n, ok := segmentNumber(name); ok && (len(segs) == 0 || n > segs[len(segs)-1]) {
			segs = append(segs, n)
		} else if name != snapshotName || len(segs) > 0 || hdr.Size > atomicfile.HeaderLen+maxSnapshotBody {
			return bad("entry %q (%d bytes) is out of place, oversized, or no file a feed's log holds", name, hdr.Size)
		} else if _, err := io.Copy(&raw, tr); err != nil {
			return bad("reading the snapshot: %v", err)
		} else if snap, perr := ParseSnapshot(raw.Bytes()); perr == nil && accept != nil {
			if err := accept(snap); err != nil {
				return err
			}
		}
		f, err := os.OpenFile(filepath.Join(stage, name), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if err != nil {
			return err
		}
		var copied int64
		err = atomicfile.CloseSynced(f, func(w io.Writer) (err error) {
			copied, err = io.Copy(w, io.TeeReader(io.MultiReader(&raw, tr), sum))
			return err
		})
		var disk *fs.PathError
		if errors.As(err, &disk) {
			return err // the disk failed, not the archive
		}
		if err != nil || copied != hdr.Size {
			return bad("entry %q holds %d of its %d bytes: %v", name, copied, hdr.Size, err)
		}
		total += copied
	}
	t, err := io.ReadAll(io.LimitReader(tr, maxTrailerLen+1))
	if err != nil || !bytes.Equal(t, trailer(len(seen)-1, total, sum)) {
		return bad("the trailer %q does not match the %d files and %d bytes before it (%v)", t, len(seen)-1, total, err)
	}
	if _, err := tr.Next(); err != io.EOF {
		return bad("entries after the trailer (%v)", err)
	}
	if _, _, err := walk(stage, feed, segs, false, func(int, []byte, uint32) bool { return true }); err != nil {
		return bad("%v", err)
	}
	if err := syncDir(stage); err != nil {
		return err
	}
	return atomicfile.Rename(stage, dst)
}
