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
