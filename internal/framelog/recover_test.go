package framelog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/fault"
)

// refRecovery is what a recovery of one feed directory must come to: which
// record indices are delivered, the Recovery reported, whether it fails and
// how, and every file's bytes once the writer has been opened and closed.
type refRecovery struct {
	indices []int
	crcs    []uint32 // the stored CRC of each record in indices
	rec     Recovery
	corrupt bool // fails with ErrCorrupt
	badHdr  bool // fails on a segment's magic or version
	disk    map[string][]byte
}

// referenceRecovery restates, byte by byte and without the package's
// decoder, the recovery the scan in Open and the loop in Replay each
// implemented before they shared a walker: segments in name order, 8-byte
// header, fixed-size records checked by length and Castagnoli CRC; the first
// bad record ends a last segment (torn tail, truncated there; a header-less
// last segment is rewritten to a bare header) and fails anywhere else.
func referenceRecovery(t testing.TB, dir string) refRecovery {
	t.Helper()
	le := binary.LittleEndian
	ref := refRecovery{disk: map[string][]byte{}}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		ref.disk[e.Name()] = raw
		names = append(names, e.Name())
	}
	sort.Strings(names)
	ref.rec.LastIndex = -1
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	for i, name := range names {
		raw, last := ref.disk[name], i == len(names)-1
		if len(raw) < 8 {
			if !last {
				ref.corrupt = true
				return ref
			}
			ref.rec.TornTail = len(raw) > 0
			ref.rec.TruncatedBytes = int64(len(raw))
			ref.disk[name] = []byte{0x47, 0x4C, 0x46, 0x4F, 1, 0, 0, 0}
			break
		}
		if le.Uint32(raw) != 0x4F464C47 || le.Uint32(raw[4:]) != 1 {
			ref.badHdr = true
			return ref
		}
		off := 8
		for off < len(raw) {
			const payload = 557
			ok := len(raw)-off >= 8+payload && le.Uint32(raw[off:]) == payload &&
				crc32.Checksum(raw[off+8:off+8+payload], castagnoli) == le.Uint32(raw[off+4:])
			if !ok {
				if !last {
					ref.corrupt = true
					return ref
				}
				ref.rec.TornTail = true
				ref.rec.TruncatedBytes = int64(len(raw) - off)
				ref.disk[name] = raw[:off]
				break
			}
			index := int(le.Uint64(raw[off+8:]))
			if ref.rec.Frames == 0 {
				ref.rec.FirstIndex = index
			}
			ref.rec.LastIndex = index
			ref.rec.Frames++
			ref.indices = append(ref.indices, index)
			ref.crcs = append(ref.crcs, le.Uint32(raw[off+4:]))
			off += 8 + payload
		}
	}
	ref.rec.NextIndex = ref.rec.LastIndex + 1
	return ref
}

// copyFeed copies one feed's segment files under a fresh root.
func copyFeed(t testing.TB, src, feed string) string {
	t.Helper()
	root := t.TempDir()
	if err := os.MkdirAll(feedDir(root, feed), 0o755); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(feedDir(src, feed))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		raw, err := os.ReadFile(filepath.Join(feedDir(src, feed), e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(feedDir(root, feed), e.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// checkRecovery holds every recovery path — OpenReplay in one pass, OpenReplay
// resuming at an anchor on the middle record, and Open followed by
// Replay(limit = Recovery.Frames) — to the reference on private copies of a
// feed's log: the same frames delivered (bit for bit equal to want(index)
// when the log's frames are known; only those after the anchor when
// resuming), the same Recovery, the same verdict, and the same bytes left on
// disk. src is not touched.
func checkRecovery(t testing.TB, src, feed string, want func(index int) fault.Frame) {
	t.Helper()
	ref := referenceRecovery(t, feedDir(src, feed))
	cfg := func(root string) Config { return Config{Dir: root, Fsync: FsyncOff} }

	verdict := func(path string, rec Recovery, err error) {
		t.Helper()
		if failed := ref.corrupt || ref.badHdr; (err != nil) != failed || errors.Is(err, ErrCorrupt) != ref.corrupt {
			t.Fatalf("%s: error %v, want corrupt=%v bad-header=%v", path, err, ref.corrupt, ref.badHdr)
		}
		if rec != ref.rec {
			t.Fatalf("%s: recovery %+v, want %+v", path, rec, ref.rec)
		}
	}
	delivered := func(path string, got []fault.Frame, indices []int) {
		t.Helper()
		if len(got) != len(indices) {
			t.Fatalf("%s: delivered %d frames, want %d", path, len(got), len(indices))
		}
		for i, g := range got {
			if g.Index != indices[i] || !framesEqual(asTruthFrame(g), g) {
				t.Fatalf("%s: frame %d has index %d (want %d) or Truth != Rec", path, i, g.Index, indices[i])
			}
			if want != nil && !framesEqual(g, want(g.Index)) {
				t.Fatalf("%s: frame %d (index %d) is not the frame that was logged", path, i, g.Index)
			}
		}
	}
	disk := func(path, root string) {
		t.Helper()
		ents, err := os.ReadDir(feedDir(root, feed))
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) != len(ref.disk) {
			t.Fatalf("%s: %d files on disk, want %d", path, len(ents), len(ref.disk))
		}
		for _, e := range ents {
			raw, err := os.ReadFile(filepath.Join(feedDir(root, feed), e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(raw, ref.disk[e.Name()]) {
				t.Fatalf("%s: %s holds %d bytes, want %d (or differs)", path, e.Name(), len(raw), len(ref.disk[e.Name()]))
			}
		}
	}

	// One pass.
	one := copyFeed(t, src, feed)
	var got []fault.Frame
	w, rec, err := OpenReplay(cfg(one), nil, feed, Anchor{}, func(f *fault.Frame) { got = append(got, *f) })
	verdict("OpenReplay", rec, err)
	delivered("OpenReplay", got, ref.indices)
	if err == nil {
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	disk("OpenReplay", one)

	// One pass, resuming after the middle record.
	if mid := len(ref.indices) / 2; mid < len(ref.indices) {
		resumed := copyFeed(t, src, feed)
		got = nil
		from := Anchor{Next: ref.indices[mid] + 1, CRC: ref.crcs[mid]}
		w, rec, err := OpenReplay(cfg(resumed), nil, feed, from, func(f *fault.Frame) { got = append(got, *f) })
		verdict("OpenReplay resuming", rec, err)
		delivered("OpenReplay resuming", got, ref.indices[mid+1:])
		if err == nil {
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
		}
		disk("OpenReplay resuming", resumed)
	}

	// Two passes, as recovery ran before.
	two := copyFeed(t, src, feed)
	w, rec, err = Open(cfg(two), feed)
	verdict("Open", rec, err)
	if err == nil {
		var replayed []fault.Frame
		n, err := Replay(two, feed, rec.Frames, func(f fault.Frame) error {
			replayed = append(replayed, f)
			return nil
		})
		if err != nil || n != rec.Frames {
			t.Fatalf("Replay after Open: %d frames, error %v; want %d", n, err, rec.Frames)
		}
		delivered("Open+Replay", replayed, ref.indices)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	disk("Open", two)
}

// asTruthFrame returns the frame with Truth in Rec's place, so framesEqual can
// compare the two records of one frame.
func asTruthFrame(f fault.Frame) fault.Frame {
	f.Rec = f.Truth
	return f
}

// TestOneWalkerSameRecovery: for every shape of log a crash or an operator
// can leave behind, the one-pass recovery and the two-pass one agree with
// the restated reference on frames, Recovery, verdict and repaired bytes.
func TestOneWalkerSameRecovery(t *testing.T) {
	small := int64(segHeaderLen + 4*recordLen)
	build := func(t *testing.T, cfg Config, n int) string {
		t.Helper()
		cfg.Dir, cfg.Fsync = t.TempDir(), FsyncOff
		w, _, err := Open(cfg, "f")
		if err != nil {
			t.Fatal(err)
		}
		appendN(t, w, 0, n)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return cfg.Dir
	}
	seg := func(dir string, n int) string { return filepath.Join(feedDir(dir, "f"), segmentName(n)) }
	mutate := func(t *testing.T, path string, fn func(raw []byte) []byte) {
		t.Helper()
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, fn(raw), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name  string
		build func(t *testing.T) string
		// what the reference must have found, so a scenario that silently
		// stopped producing its fault fails here instead of passing.
		frames  int
		torn    bool
		corrupt bool
	}{
		{"clean, one segment", func(t *testing.T) string { return build(t, Config{}, 20) }, 20, false, false},
		{"clean, five segments", func(t *testing.T) string { return build(t, Config{SegmentMaxBytes: small}, 20) }, 20, false, false},
		{"empty log", func(t *testing.T) string { return build(t, Config{}, 0) }, 0, false, false},
		{"torn tail, mid-record", func(t *testing.T) string {
			dir := build(t, Config{SegmentMaxBytes: small}, 18)
			mutate(t, seg(dir, 4), func(raw []byte) []byte { return raw[:len(raw)-recordLen/2] })
			return dir
		}, 17, true, false},
		{"torn tail, CRC of the last record", func(t *testing.T) string {
			dir := build(t, Config{}, 9)
			mutate(t, seg(dir, 0), func(raw []byte) []byte { raw[len(raw)-1] ^= 0x10; return raw })
			return dir
		}, 8, true, false},
		{"last segment with a record failing before valid ones", func(t *testing.T) string {
			dir := build(t, Config{}, 9)
			mutate(t, seg(dir, 0), func(raw []byte) []byte { raw[segHeaderLen+5*recordLen+20] ^= 1; return raw })
			return dir
		}, 5, true, false},
		{"header-less last segment, empty", func(t *testing.T) string {
			dir := build(t, Config{SegmentMaxBytes: small}, 8)
			if err := os.WriteFile(seg(dir, 2), nil, 0o644); err != nil {
				t.Fatal(err)
			}
			return dir
		}, 8, false, false},
		{"crash during rotation, header half written", func(t *testing.T) string {
			dir := build(t, Config{SegmentMaxBytes: small}, 8)
			if err := os.WriteFile(seg(dir, 2), segmentHeader()[:3], 0o644); err != nil {
				t.Fatal(err)
			}
			return dir
		}, 8, true, false},
		{"retention-rotated", func(t *testing.T) string { return build(t, Config{SegmentMaxBytes: small, MaxSegments: 2}, 30) }, 6, false, false},
		{"mid-log corruption, sealed segment", func(t *testing.T) string {
			dir := build(t, Config{SegmentMaxBytes: small}, 20)
			mutate(t, seg(dir, 1), func(raw []byte) []byte { raw[segHeaderLen+recordLen+100] ^= 0x80; return raw })
			return dir
		}, 5, false, true},
		{"mid-log corruption, sealed segment cut short", func(t *testing.T) string {
			dir := build(t, Config{SegmentMaxBytes: small}, 20)
			mutate(t, seg(dir, 0), func(raw []byte) []byte { return raw[:len(raw)-7] })
			return dir
		}, 3, false, true},
		{"mid-log corruption, header-less sealed segment", func(t *testing.T) string {
			dir := build(t, Config{SegmentMaxBytes: small}, 20)
			mutate(t, seg(dir, 2), func(raw []byte) []byte { return raw[:5] })
			return dir
		}, 8, false, true},
		{"mid-log corruption, empty sealed segment", func(t *testing.T) string {
			dir := build(t, Config{SegmentMaxBytes: small}, 20)
			mutate(t, seg(dir, 1), func([]byte) []byte { return nil })
			return dir
		}, 4, false, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := c.build(t)
			ref := referenceRecovery(t, feedDir(dir, "f"))
			if ref.rec.Frames != c.frames || ref.rec.TornTail != c.torn || ref.corrupt != c.corrupt {
				t.Fatalf("scenario is not what it says: %d frames, torn %v, corrupt %v", ref.rec.Frames, ref.rec.TornTail, ref.corrupt)
			}
			checkRecovery(t, dir, "f", mkFrame)
		})
	}
}
