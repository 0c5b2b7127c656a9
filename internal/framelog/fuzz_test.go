package framelog

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fault"
)

// writeSegment plants raw bytes as a feed's only segment file.
func writeSegment(t testing.TB, root, feed string, raw []byte) {
	t.Helper()
	if err := os.MkdirAll(feedDir(root, feed), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(feedDir(root, feed), segmentName(0)), raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// seedSegment returns the bytes of a clean 12-record segment.
func seedSegment(t testing.TB) []byte {
	dir := t.TempDir()
	w, _, err := Open(Config{Dir: dir, Fsync: FsyncOff}, "seed")
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 12)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(feedDir(dir, "seed"), segmentName(0)))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// replayCount replays a planted segment, requiring no panic; returns the
// frame count and error.
func replayCount(t testing.TB, raw []byte) (int, error) {
	dir := t.TempDir()
	writeSegment(t, dir, "f", raw)
	n := 0
	_, err := Replay(dir, "f", -1, func(fault.Frame) error { n++; return nil })
	return n, err
}

// TestReplayEveryTruncation: every strict prefix of a valid segment must
// replay only the complete records before the cut — never panic, never
// error (a pure prefix is exactly what a torn write leaves), never invent a
// frame.
func TestReplayEveryTruncation(t *testing.T) {
	raw := seedSegment(t)
	for cut := 0; cut <= len(raw); cut++ {
		want := 0
		if cut >= segHeaderLen {
			want = (cut - segHeaderLen) / recordLen
		}
		n, err := replayCount(t, raw[:cut])
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		if n != want {
			t.Fatalf("cut=%d: replayed %d, want %d", cut, n, want)
		}
	}
}

// TestReplayFlippedCRCBytes: flipping any byte of a record must surface as
// either a clean stop (the flip landed in the tail record) or ErrCorrupt —
// never a silently different frame count past the flip, never a panic.
func TestReplayFlippedCRCBytes(t *testing.T) {
	raw := seedSegment(t)
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 400; trial++ {
		mut := append([]byte(nil), raw...)
		pos := rng.Intn(len(mut))
		mut[pos] ^= 1 << rng.Intn(8)
		n, err := replayCount(t, mut)
		if pos < segHeaderLen {
			if err == nil {
				t.Fatalf("trial %d: header flip at %d accepted", trial, pos)
			}
			continue
		}
		recAt := (pos - segHeaderLen) / recordLen
		if err != nil {
			continue // detected as corruption: fine anywhere
		}
		// Accepted: the replay must have stopped exactly at the flipped
		// record (torn-tail semantics) — everything before it intact.
		if n != recAt {
			t.Fatalf("trial %d: flip at record %d byte %d replayed %d frames", trial, recAt, pos, n)
		}
	}
}

// TestReplayZeroLengthRecord: a zero length prefix (what a preallocated or
// zero-filled region reads as) must terminate the scan as a torn tail, not
// loop forever or return an empty frame.
func TestReplayZeroLengthRecord(t *testing.T) {
	raw := seedSegment(t)
	zero := make([]byte, recHeaderLen+payloadLen)
	// Even with a "correct" CRC over an empty payload the zero length must
	// be rejected.
	binary.LittleEndian.PutUint32(zero[4:], crc32.ChecksumIEEE(nil))
	n, err := replayCount(t, append(append([]byte(nil), raw...), zero...))
	if err != nil {
		t.Fatal(err)
	}
	if n != 12 {
		t.Fatalf("zero-length tail record: replayed %d, want 12", n)
	}
	// A zero-length record in a *sealed* (non-last) segment is acknowledged
	// data failing validation: that must be ErrCorrupt, not a silent stop.
	dir := t.TempDir()
	bad := append(append([]byte(nil), raw...), zero[:recHeaderLen]...)
	writeSegment(t, dir, "f", bad)
	if err := os.WriteFile(filepath.Join(feedDir(dir, "f"), segmentName(1)), seedSegment(t), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(dir, "f", -1, func(fault.Frame) error { return nil }); err == nil {
		t.Fatal("zero-length record in a sealed segment replayed without error")
	}
}

// TestReplayHostileLengths: absurd record lengths must not drive
// allocations or panics.
func TestReplayHostileLengths(t *testing.T) {
	for _, length := range []uint32{1, payloadLen - 1, payloadLen + 1, 1 << 20, 1<<32 - 1} {
		raw := segmentHeader()
		raw = binary.LittleEndian.AppendUint32(raw, length)
		raw = binary.LittleEndian.AppendUint32(raw, 0)
		raw = append(raw, make([]byte, 64)...)
		n, err := replayCount(t, raw)
		if err != nil || n != 0 {
			t.Fatalf("length %d: n=%d err=%v", length, n, err)
		}
	}
}

// TestOpenNeverPanicsOnMutants mirrors the PR 2 loader-fuzz pattern at the
// Writer.Open layer: random byte flips and truncations must yield either a
// usable writer or an error — never a panic, and never a writer that then
// corrupts recovered data.
func TestOpenNeverPanicsOnMutants(t *testing.T) {
	raw := seedSegment(t)
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 200; trial++ {
		mut := append([]byte(nil), raw...)
		for flips := rng.Intn(4); flips >= 0; flips-- {
			mut[rng.Intn(len(mut))] ^= 1 << rng.Intn(8)
		}
		mut = mut[:rng.Intn(len(mut)+1)]
		dir := t.TempDir()
		writeSegment(t, dir, "f", mut)
		checkRecovery(t, dir, "f", nil)
		w, rec, err := Open(Config{Dir: dir, Fsync: FsyncOff}, "f")
		if err != nil {
			continue
		}
		appendN(t, w, rec.NextIndex, 2)
		if err := w.Close(); err != nil {
			t.Fatalf("trial %d: close: %v", trial, err)
		}
		got := replayAll(t, dir, "f")
		if len(got) < 2 {
			t.Fatalf("trial %d: recovered writer lost its own appends (%d frames)", trial, len(got))
		}
	}
}

// FuzzReplay feeds arbitrary bytes to the segment reader. Any outcome
// (clean stop or error) is acceptable for garbage input, as long as there is
// no panic, the work is bounded, and the one-pass and two-pass recoveries of
// those bytes agree with the restated reference (checkRecovery).
func FuzzReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add(segmentHeader())
	raw := seedSegment(f)
	f.Add(raw)
	f.Add(raw[:len(raw)-5])
	zero := make([]byte, 600)
	f.Add(append(append([]byte(nil), segmentHeader()...), zero...))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		writeSegment(t, dir, "f", data)
		n, _ := Replay(dir, "f", -1, func(fault.Frame) error { return nil })
		if max := (len(data) - segHeaderLen) / recordLen; n > max || (max < 0 && n != 0) {
			t.Fatalf("replayed %d frames out of %d bytes", n, len(data))
		}
		checkRecovery(t, dir, "f", nil)
	})
}
