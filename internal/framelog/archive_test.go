package framelog

import (
	"archive/tar"
	"bytes"
	"errors"
	"hash"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/atomicfile"
)

// archivedFeed logs 10 frames for feed "f" under a fresh root, 4 to a
// segment with the oldest retired past 2 (segments 1 and 2 survive), writes
// a snapshot, closes the log, and returns the root and the feed's archive.
func archivedFeed(t testing.TB) (root string, archive []byte) {
	t.Helper()
	root = t.TempDir()
	w, _, err := Open(Config{Dir: root, Fsync: FsyncOff, SegmentMaxBytes: segHeaderLen + 4*recordLen, MaxSegments: 2}, "f")
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 10)
	if err := w.SaveSnapshot("scorer", []byte("state")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Export(&buf, root, "f"); err != nil {
		t.Fatal(err)
	}
	return root, buf.Bytes()
}

// entry is one file of a hand-built archive.
type entry struct {
	name string
	typ  byte
	body []byte
	size int64 // the header's claim; 0: len(body)
}

// entries reads an archive back into its entries.
func entries(t testing.TB, archive []byte) []entry {
	t.Helper()
	var out []entry
	tr := tar.NewReader(bytes.NewReader(archive))
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(tr)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, entry{name: hdr.Name, typ: hdr.Typeflag, body: body})
	}
}

// build writes entries as an archive, as a hostile or broken sender might.
func build(t testing.TB, es []entry) []byte {
	t.Helper()
	var buf bytes.Buffer
	tw := tar.NewWriter(&buf)
	for _, e := range es {
		size := e.size
		if size == 0 && e.typ == tar.TypeReg {
			size = int64(len(e.body))
		}
		hdr := &tar.Header{Name: e.name, Typeflag: e.typ, Mode: 0o644, Size: size}
		if e.typ == tar.TypeSymlink || e.typ == tar.TypeLink {
			hdr.Linkname = "x"
		}
		if err := tw.WriteHeader(hdr); err != nil {
			t.Fatal(err)
		}
		if e.typ == tar.TypeReg {
			if _, err := tw.Write(e.body); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Flush refuses an entry whose body is shorter than its claim, and Close
	// with it: what it would add are the padding and the end-of-archive
	// blocks.
	_ = tw.Flush()
	return append(buf.Bytes(), make([]byte, 1024)...)
}

// resealed recomputes the trailer for es[:len(es)-1], which must end with
// the trailer entry, so a test can damage the files and keep the count true.
func resealed(es []entry) []entry {
	sum := crcOf(es[:len(es)-1])
	var total int64
	for _, e := range es[:len(es)-1] {
		total += int64(len(e.body))
	}
	out := append([]entry(nil), es...)
	out[len(out)-1].body = trailer(len(es)-1, total, sum)
	return out
}

// tree lists every path under dir, relative to it; an absent dir is empty.
func tree(t testing.TB, dir string) []string {
	t.Helper()
	var paths []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if errors.Is(err, fs.ErrNotExist) && path == dir {
			return nil
		}
		if err != nil {
			return err
		}
		if rel, _ := filepath.Rel(dir, path); rel != "." {
			paths = append(paths, rel)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(paths)
	return paths
}

// TestExportImportRoundTrip: an exported feed imports as a byte-identical
// directory that recovers the same frames; accept sees the snapshot.
func TestExportImportRoundTrip(t *testing.T) {
	src, archive := archivedFeed(t)
	if names := entries(t, archive); len(names) != 4 || names[0].name != snapshotName ||
		names[1].name != segmentName(1) || names[2].name != segmentName(2) || names[3].name != trailerName {
		t.Fatalf("archive entries %v, want snapshot, segments 1 and 2, trailer", names)
	}
	dst := filepath.Join(t.TempDir(), "root")
	var seen Snapshot
	if err := Import(dst, "f", bytes.NewReader(archive), func(s Snapshot) error { seen = s; return nil }); err != nil {
		t.Fatal(err)
	}
	if seen.Scorer != "scorer" || seen.Next != 10 || string(seen.State) != "state" {
		t.Fatalf("accept saw %+v", seen)
	}
	if got, want := tree(t, dst), []string{"f", "f/" + segmentName(1), "f/" + segmentName(2), "f/" + snapshotName}; strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("imported tree %v, want %v", got, want)
	}
	for _, name := range []string{snapshotName, segmentName(1), segmentName(2)} {
		a, _ := os.ReadFile(filepath.Join(src, "f", name))
		b, _ := os.ReadFile(filepath.Join(dst, "f", name))
		if !bytes.Equal(a, b) {
			t.Fatalf("%s differs after the round trip", name)
		}
	}
	got := replayAll(t, dst, "f")
	if len(got) != 6 || !framesEqual(got[0], mkFrame(4)) || !framesEqual(got[5], mkFrame(9)) {
		t.Fatalf("imported log replays %d frames", len(got))
	}
}

// TestImportRefusesHostileArchives: each way an archive can be malformed or
// malicious fails with ErrBadArchive, and nothing is left under root or
// beside it.
func TestImportRefusesHostileArchives(t *testing.T) {
	_, archive := archivedFeed(t)
	good := entries(t, archive)
	snap, seg1, seg2, tr := good[0], good[1], good[2], good[3]
	corrupt := append([]byte(nil), seg1.body...)
	corrupt[segHeaderLen+100] ^= 1
	cases := map[string][]byte{
		"parent name":         build(t, resealed([]entry{snap, {name: "../" + seg1.name, typ: tar.TypeReg, body: seg1.body}, tr})),
		"absolute name":       build(t, resealed([]entry{snap, {name: "/tmp/" + seg1.name, typ: tar.TypeReg, body: seg1.body}, tr})),
		"nested name":         build(t, resealed([]entry{snap, {name: "x/" + seg1.name, typ: tar.TypeReg, body: seg1.body}, tr})),
		"foreign name":        build(t, resealed([]entry{snap, {name: "snapshot.tmp", typ: tar.TypeReg, body: snap.body}, tr})),
		"loose segment name":  build(t, resealed([]entry{snap, {name: "1.flog", typ: tar.TypeReg, body: seg1.body}, tr})),
		"duplicate segment":   build(t, resealed([]entry{snap, seg1, seg1, tr})),
		"duplicate snapshot":  build(t, resealed([]entry{snap, snap, seg1, tr})),
		"segments reordered":  build(t, resealed([]entry{snap, seg2, seg1, tr})),
		"snapshot last":       build(t, resealed([]entry{seg1, seg2, snap, tr})),
		"symlink":             build(t, resealed([]entry{snap, {name: seg1.name, typ: tar.TypeSymlink}, tr})),
		"hard link":           build(t, resealed([]entry{snap, {name: seg1.name, typ: tar.TypeLink}, tr})),
		"directory":           build(t, resealed([]entry{snap, {name: seg1.name, typ: tar.TypeDir}, tr})),
		"fifo":                build(t, resealed([]entry{snap, {name: seg1.name, typ: tar.TypeFifo}, tr})),
		"oversize snapshot":   build(t, resealed([]entry{{name: snapshotName, typ: tar.TypeReg, body: make([]byte, atomicfile.HeaderLen+maxSnapshotBody+1)}, seg1, tr})),
		"no trailer":          build(t, []entry{snap, seg1, seg2}),
		"trailer miscounted":  build(t, []entry{snap, seg1, tr}),
		"trailer wrong crc":   build(t, []entry{snap, seg1, {name: seg2.name, typ: tar.TypeReg, body: corrupt}, tr}),
		"trailer as dir":      build(t, []entry{snap, seg1, seg2, {name: trailerName, typ: tar.TypeDir}}),
		"entry after trailer": build(t, append(resealed([]entry{snap, seg1, tr}), seg2)),
		"corrupt sealed log":  build(t, resealed([]entry{snap, {name: seg1.name, typ: tar.TypeReg, body: corrupt}, seg2, tr})),
		"short entry":         build(t, []entry{snap, {name: seg1.name, typ: tar.TypeReg, body: seg1.body, size: int64(len(seg1.body)) + 4096}}),
		"not a tar stream":    []byte("files 0 bytes 0 crc32c 00000000\n"),
		"empty":               nil,
	}
	for name, a := range cases {
		t.Run(name, func(t *testing.T) {
			outer := t.TempDir()
			root := filepath.Join(outer, "root")
			err := Import(root, "f", bytes.NewReader(a), nil)
			if !errors.Is(err, ErrBadArchive) {
				t.Fatalf("Import: %v, want ErrBadArchive", err)
			}
			if got := tree(t, outer); len(got) > 1 || len(got) == 1 && got[0] != "root" {
				t.Fatalf("left behind: %v", got)
			}
		})
	}
}

// TestImportEveryTruncation: an archive cut anywhere before its trailer has
// arrived is refused and leaves nothing behind.
func TestImportEveryTruncation(t *testing.T) {
	_, archive := archivedFeed(t)
	end := len(archive) - 1024 // the end-of-archive blocks
	for end > 0 && archive[end-1] == 0 {
		end-- // the trailer's padding
	}
	root := filepath.Join(t.TempDir(), "root")
	for cut := 0; cut < end; cut++ {
		if err := Import(root, "f", bytes.NewReader(archive[:cut]), nil); !errors.Is(err, ErrBadArchive) {
			t.Fatalf("cut at %d of %d: %v, want ErrBadArchive", cut, len(archive), err)
		}
		if got := tree(t, root); len(got) != 0 {
			t.Fatalf("cut at %d left %v", cut, got)
		}
	}
}

// TestImportRefusalsLeaveNothing: accept's error refuses the archive as soon
// as the snapshot has arrived — before any segment is read — and an import
// over an existing directory is refused without touching it.
func TestImportRefusalsLeaveNothing(t *testing.T) {
	_, archive := archivedFeed(t)
	root := filepath.Join(t.TempDir(), "root")
	refused := errors.New("refused")
	r := &countReader{r: bytes.NewReader(archive)}
	if err := Import(root, "f", r, func(Snapshot) error { return refused }); err != refused {
		t.Fatalf("Import: %v, want accept's error", err)
	}
	snapEnd := 512 + len(entries(t, archive)[0].body)
	if r.n > snapEnd+512 {
		t.Fatalf("read %d bytes before refusing; the snapshot ends at %d", r.n, snapEnd)
	}
	if got := tree(t, root); len(got) != 0 {
		t.Fatalf("refusal left %v", got)
	}

	if err := os.MkdirAll(filepath.Join(root, "f"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := Import(root, "f", bytes.NewReader(archive), nil); !errors.Is(err, fs.ErrExist) {
		t.Fatalf("Import over a directory: %v, want fs.ErrExist", err)
	}
	if got := tree(t, root); len(got) != 1 || got[0] != "f" {
		t.Fatalf("import over a directory left %v", got)
	}
}

type countReader struct {
	r io.Reader
	n int
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// crcOf is the trailer CRC of the entries' bodies.
func crcOf(es []entry) hash.Hash32 {
	sum := crc32.New(crcTable)
	for _, e := range es {
		sum.Write(e.body)
	}
	return sum
}

// FuzzImport feeds arbitrary bytes to Import as an archive, seeded with a
// good one, its cuts and the hostile shapes above. Whatever the input, the
// gate holds: nothing is written beside the log root, a refused archive
// leaves the root empty, and a feed directory appears only when Import
// returned nil — holding only files a feed's log holds.
func FuzzImport(f *testing.F) {
	_, archive := archivedFeed(f)
	es := entries(f, archive)
	snap, seg1, seg2, tr := es[0], es[1], es[2], es[3]
	f.Add(archive)
	for _, cut := range []int{0, 511, 512, 1024, len(archive) / 2, len(archive) - 1025} {
		f.Add(archive[:cut])
	}
	f.Add(build(f, resealed([]entry{snap, {name: "../" + seg1.name, typ: tar.TypeReg, body: seg1.body}, tr})))
	f.Add(build(f, resealed([]entry{snap, {name: "/" + seg1.name, typ: tar.TypeReg, body: seg1.body}, tr})))
	f.Add(build(f, resealed([]entry{snap, seg1, seg1, tr})))
	f.Add(build(f, resealed([]entry{snap, {name: seg2.name, typ: tar.TypeSymlink}, tr})))
	f.Add(build(f, resealed([]entry{{name: snapshotName, typ: tar.TypeReg, body: make([]byte, atomicfile.HeaderLen+maxSnapshotBody+1)}, tr})))
	f.Add(build(f, []entry{snap, seg1, seg2}))
	f.Add(build(f, []entry{snap, seg1, tr}))
	f.Fuzz(func(t *testing.T, data []byte) {
		outer := t.TempDir()
		root := filepath.Join(outer, "root")
		err := Import(root, "f", bytes.NewReader(data), nil)
		if got := tree(t, outer); len(got) > 0 && got[0] != "root" {
			t.Fatalf("written beside the root: %v", got)
		}
		got := tree(t, root)
		if err != nil {
			if len(got) != 0 {
				t.Fatalf("refused (%v) but left %v", err, got)
			}
			return
		}
		if len(got) == 0 || got[0] != "f" {
			t.Fatalf("accepted, but the root holds %v", got)
		}
		for _, p := range got[1:] {
			name := strings.TrimPrefix(p, "f"+string(filepath.Separator))
			if _, ok := segmentNumber(name); !ok && name != snapshotName {
				t.Fatalf("accepted, and the feed holds %q", p)
			}
		}
	})
}
