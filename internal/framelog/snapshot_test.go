package framelog

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fault"
)

// TestSnapshotAnchorsAtLastAppend: a snapshot written after appends anchors
// at the last record and reads back exactly; a writer with nothing logged
// writes none.
func TestSnapshotAnchorsAtLastAppend(t *testing.T) {
	cfg := Config{Dir: t.TempDir(), Fsync: FsyncOff, SegmentMaxBytes: segHeaderLen + 4*recordLen}
	w, _, err := Open(cfg, "f")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.SaveSnapshot("s", []byte("empty")); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshot(cfg.Dir, "f"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("snapshot of an empty log: %v, want none written", err)
	}
	appendN(t, w, 0, 10)
	if w.Segment() != 2 {
		t.Fatalf("active segment %d after 10 records of 4 per segment, want 2", w.Segment())
	}
	if err := w.SaveSnapshot("scorer", []byte("state")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	ref := referenceRecovery(t, feedDir(cfg.Dir, "f"))
	snap, err := ReadSnapshot(cfg.Dir, "f")
	if err != nil {
		t.Fatal(err)
	}
	want := Snapshot{Anchor: Anchor{Next: 10, CRC: ref.crcs[9]}, Scorer: "scorer", State: []byte("state")}
	if snap.Anchor != want.Anchor || snap.Scorer != want.Scorer || !bytes.Equal(snap.State, want.State) {
		t.Fatalf("read back %+v, want %+v", snap, want)
	}
	raw, err := os.ReadFile(filepath.Join(feedDir(cfg.Dir, "f"), snapshotName))
	if err != nil || !bytes.Equal(raw, EncodeSnapshot(want)) {
		t.Fatalf("snapshot file is not EncodeSnapshot's encoding (err %v)", err)
	}
}

// TestResumeOrSayWhyNot: OpenReplay resumes after an anchor the log holds,
// and for each way an anchor can fail to hold delivers nothing and names it,
// with the rest of the Recovery what a full open reports.
func TestResumeOrSayWhyNot(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, Fsync: FsyncOff, SegmentMaxBytes: segHeaderLen + 4*recordLen, MaxSegments: 2}
	w, _, err := Open(cfg, "f")
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 16) // retains records 8..15
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	ref := referenceRecovery(t, feedDir(dir, "f"))
	crc := func(index int) uint32 { return ref.crcs[index-ref.rec.FirstIndex] }
	cases := []struct {
		name  string
		from  Anchor
		stale string
		first int // first index delivered when the anchor holds
	}{
		{"mid-log", Anchor{Next: 10, CRC: crc(9)}, "", 10},
		{"at the end", Anchor{Next: 16, CRC: crc(15)}, "", 16},
		{"first retained record", Anchor{Next: 9, CRC: crc(8)}, "", 9},
		{"another CRC", Anchor{Next: 10, CRC: crc(9) ^ 1}, AnchorMismatch, 0},
		{"past the end", Anchor{Next: 17, CRC: crc(15)}, BeyondLog, 0},
		{"retired record", Anchor{Next: 8, CRC: 1}, BeforeLog, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var got []int
			w, rec, err := OpenReplay(Config{Dir: dir, Fsync: FsyncOff}, nil, "f", c.from, func(f *fault.Frame) { got = append(got, f.Index) })
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			want := ref.rec
			want.Stale = c.stale
			if rec != want {
				t.Fatalf("recovery %+v, want %+v", rec, want)
			}
			n := 0
			if c.stale == "" {
				n = 16 - c.first
			}
			if len(got) != n || n > 0 && (got[0] != c.first || got[n-1] != 15) {
				t.Fatalf("delivered %v, want %d frames from %d", got, n, c.first)
			}
		})
	}

	// A feed with no log at all holds nothing an anchor could match.
	w, rec, err := OpenReplay(Config{Dir: dir, Fsync: FsyncOff}, nil, "new", Anchor{Next: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if rec.Stale != BeyondLog {
		t.Fatalf("anchor over an empty log: stale %q, want %q", rec.Stale, BeyondLog)
	}
}

// TestRetentionKeepsSnapshotAnchor: the server writes a seal's snapshot only
// once the batch that sealed is decided, so a crash between the two leaves
// the previous snapshot as the newest, and retention must not have retired
// the segment holding its anchor. Each case appends batches to 6-record
// segments as the server does — a snapshot after every batch that seals —
// but crashes after the last one, which seals, before its snapshot; the
// reopened log must resume from the snapshot before it. The reopened writer,
// which knows the anchor only from OpenReplay, then seals again and crashes
// the same way.
func TestRetentionKeepsSnapshotAnchor(t *testing.T) {
	for _, c := range []struct{ maxSegments, batch, batches int }{
		{1, 1, 25}, // anchor 19 in segment 3, sealed by frame 24
		{2, 13, 3}, // anchor 26 in segment 4, two seals in the last batch
		{2, 1, 25}, // the cap alone keeps the anchor
		{3, 13, 5}, // a cap above what one batch seals
		{1, 13, 4}, // every batch seals more than the cap holds
		{2, 50, 2}, // one batch seals eight segments
		{1, 7, 6},  // a batch the size of a segment and one
		{2, 1, 97}, // many seals
	} {
		cfg := Config{Dir: t.TempDir(), Fsync: FsyncOff, SegmentMaxBytes: segHeaderLen + 6*recordLen, MaxSegments: c.maxSegments}
		next := 0
		// batch appends the next c.batch frames and reports whether they
		// sealed a segment.
		batch := func(w *Writer) bool {
			seg := w.Segment()
			frames := make([]fault.Frame, c.batch)
			for i := range frames {
				frames[i] = mkFrame(next + i)
			}
			if _, err := w.AppendBatch(frames); err != nil {
				t.Fatal(err)
			}
			next += c.batch
			return w.Segment() != seg
		}
		// crash abandons w, and the log must resume from its snapshot.
		crash := func(w *Writer, when string) *Writer {
			if err := w.Close(); err != nil { // nothing more is written
				t.Fatal(err)
			}
			snap, err := ReadSnapshot(cfg.Dir, "f")
			if err != nil {
				t.Fatal(err)
			}
			var got []int
			w, rec, err := OpenReplay(cfg, nil, "f", snap.Anchor, func(f *fault.Frame) { got = append(got, f.Index) })
			if err != nil {
				t.Fatal(err)
			}
			if rec.Stale != "" || len(got) != next-snap.Next || got[0] != snap.Next {
				t.Errorf("%+v, %s: anchor next=%d, first retained record %d, stale %q, %d frames replayed; want the %d after the anchor",
					c, when, snap.Next, rec.FirstIndex, rec.Stale, len(got), next-snap.Next)
			}
			return w
		}
		w, _, err := Open(cfg, "f")
		if err != nil {
			t.Fatal(err)
		}
		for b := 1; b < c.batches; b++ {
			if batch(w) {
				if err := w.SaveSnapshot("s", []byte("state")); err != nil {
					t.Fatal(err)
				}
			}
		}
		if !batch(w) {
			t.Fatalf("%+v: the last batch does not seal", c)
		}
		w = crash(w, "first crash")
		for !batch(w) {
		}
		crash(w, "crash after reopening").Close()
	}
}
