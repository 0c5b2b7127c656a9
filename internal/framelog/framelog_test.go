package framelog

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/csi"
	"repro/internal/fault"
	"repro/internal/obs"
)

// mkFrame builds a deterministic frame for index i with a mix of fault
// flags, so round-trips exercise every encoded field.
func mkFrame(i int) fault.Frame {
	var f fault.Frame
	f.Index = i
	f.Rec.Time = time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC).Add(time.Duration(i) * 50 * time.Millisecond)
	f.Rec.Temp = 20 + float64(i)*0.01
	f.Rec.Humidity = 40 + math.Sin(float64(i))
	f.Rec.Count = i % 5
	f.Rec.Walking = i % 3
	for k := range f.Rec.CSI {
		f.Rec.CSI[k] = math.Sin(float64(i*csi.NumSubcarriers+k)) * 3
	}
	f.Dropped = i%23 == 7
	f.EnvOK = i%9 != 4
	f.EnvStale = i%17 == 3
	f.AGCGlitch = i%13 == 5
	f.Nulled = i % 4
	if f.Dropped {
		f.Rec.CSI = [csi.NumSubcarriers]float64{}
	}
	f.Truth = f.Rec
	return f
}

// appendN appends frames [from, from+n) to w.
func appendN(t testing.TB, w *Writer, from, n int) {
	t.Helper()
	for i := from; i < from+n; i++ {
		f := mkFrame(i)
		if err := w.Append(&f); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
}

// framesEqual compares every field that is stored in the log, bit for bit
// on the floats.
func framesEqual(a, b fault.Frame) bool {
	if a.Index != b.Index || a.Dropped != b.Dropped || a.EnvOK != b.EnvOK ||
		a.EnvStale != b.EnvStale || a.AGCGlitch != b.AGCGlitch || a.Nulled != b.Nulled ||
		a.Rec.Count != b.Rec.Count || a.Rec.Walking != b.Rec.Walking ||
		!a.Rec.Time.Equal(b.Rec.Time) ||
		math.Float64bits(a.Rec.Temp) != math.Float64bits(b.Rec.Temp) ||
		math.Float64bits(a.Rec.Humidity) != math.Float64bits(b.Rec.Humidity) {
		return false
	}
	for k := range a.Rec.CSI {
		if math.Float64bits(a.Rec.CSI[k]) != math.Float64bits(b.Rec.CSI[k]) {
			return false
		}
	}
	return true
}

func replayAll(t testing.TB, root, feed string) []fault.Frame {
	t.Helper()
	var got []fault.Frame
	if _, err := Replay(root, feed, -1, func(f fault.Frame) error {
		got = append(got, f)
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return got
}

func TestRoundTripBitExact(t *testing.T) {
	dir := t.TempDir()
	w, rec, err := Open(Config{Dir: dir, Fsync: FsyncOff}, "room-a")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Frames != 0 || rec.NextIndex != 0 {
		t.Fatalf("fresh log recovered %+v", rec)
	}
	const n = 200
	appendN(t, w, 0, n)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	got := replayAll(t, dir, "room-a")
	if len(got) != n {
		t.Fatalf("replayed %d frames, want %d", len(got), n)
	}
	for i, g := range got {
		if !framesEqual(g, mkFrame(i)) {
			t.Fatalf("frame %d does not round-trip bit-exactly: %+v", i, g)
		}
	}

	// Reopening reports the same state and appends continue the sequence.
	w2, rec2, err := Open(Config{Dir: dir, Fsync: FsyncOff}, "room-a")
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if rec2.Frames != n || rec2.NextIndex != n || rec2.FirstIndex != 0 || rec2.LastIndex != n-1 || rec2.TornTail {
		t.Fatalf("reopen recovered %+v", rec2)
	}
	appendN(t, w2, n, 10)
	if got := replayAll(t, dir, "room-a"); len(got) != n+10 {
		t.Fatalf("after continued appends: %d frames, want %d", len(got), n+10)
	}
}

func TestRotationAndRetention(t *testing.T) {
	dir := t.TempDir()
	// ~8 records per segment.
	cfg := Config{Dir: dir, Fsync: FsyncOff, SegmentMaxBytes: int64(segHeaderLen + 8*recordLen)}
	w, _, err := Open(cfg, "f")
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 50)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(feedDir(dir, "f"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 5 {
		t.Fatalf("expected rotation into >= 5 segments, got %d", len(segs))
	}
	if got := replayAll(t, dir, "f"); len(got) != 50 {
		t.Fatalf("replayed %d, want 50 across %d segments", len(got), len(segs))
	}

	// Retention: cap at 2 segments; old frames disappear, indices survive.
	cfg.MaxSegments = 2
	w2, rec, err := Open(cfg, "f")
	if err != nil {
		t.Fatal(err)
	}
	if rec.NextIndex != 50 {
		t.Fatalf("NextIndex %d, want 50", rec.NextIndex)
	}
	appendN(t, w2, 50, 40)
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err = listSegments(feedDir(dir, "f"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) > 2 {
		t.Fatalf("retention kept %d segments, cap 2", len(segs))
	}
	got := replayAll(t, dir, "f")
	if len(got) == 0 || len(got) > 16 {
		t.Fatalf("retained replay has %d frames, want a bounded suffix", len(got))
	}
	if last := got[len(got)-1]; last.Index != 89 {
		t.Fatalf("last retained index %d, want 89", last.Index)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Index != got[i-1].Index+1 {
			t.Fatalf("retained indices not contiguous at %d", i)
		}
	}
}

func TestTornTailRepair(t *testing.T) {
	for _, cut := range []int{1, recHeaderLen - 1, recHeaderLen + 3, recordLen - 1} {
		dir := t.TempDir()
		w, _, err := Open(Config{Dir: dir, Fsync: FsyncOff}, "f")
		if err != nil {
			t.Fatal(err)
		}
		appendN(t, w, 0, 20)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		seg := filepath.Join(feedDir(dir, "f"), segmentName(0))
		fi, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		// Tear the last record: keep `cut` bytes of it.
		if err := os.Truncate(seg, fi.Size()-int64(recordLen)+int64(cut)); err != nil {
			t.Fatal(err)
		}

		// The read-only path stops cleanly at the torn record.
		if got := replayAll(t, dir, "f"); len(got) != 19 {
			t.Fatalf("cut=%d: replayed %d, want 19", cut, len(got))
		}

		// Open repairs: the torn bytes are truncated away and appends resume
		// at the right index.
		reg := obs.NewRegistry()
		w2, rec, err := OpenReplay(Config{Dir: dir, Fsync: FsyncOff}, reg, "f", Anchor{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !rec.TornTail || rec.Frames != 19 || rec.NextIndex != 19 || rec.TruncatedBytes != int64(cut) {
			t.Fatalf("cut=%d: recovery %+v", cut, rec)
		}
		if v := reg.Counter("framelog_torn_tails_total", "").Value(); v != 1 {
			t.Fatalf("cut=%d: torn-tail counter %d, want 1", cut, v)
		}
		appendN(t, w2, 19, 5)
		if err := w2.Close(); err != nil {
			t.Fatal(err)
		}
		got := replayAll(t, dir, "f")
		if len(got) != 24 {
			t.Fatalf("cut=%d: after repair+append replayed %d, want 24", cut, len(got))
		}
		for i, g := range got {
			if !framesEqual(g, mkFrame(i)) {
				t.Fatalf("cut=%d: frame %d corrupted by repair", cut, i)
			}
		}
	}
}

func TestMidLogCorruptionIsAnError(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, Fsync: FsyncOff, SegmentMaxBytes: int64(segHeaderLen + 4*recordLen)}
	w, _, err := Open(cfg, "f")
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 20)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a CRC byte inside the FIRST segment — acknowledged data.
	seg := filepath.Join(feedDir(dir, "f"), segmentName(0))
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	raw[segHeaderLen+4] ^= 0xFF
	if err := os.WriteFile(seg, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(cfg, "f"); err == nil {
		t.Fatal("Open accepted mid-log corruption")
	}
	if _, err := Replay(dir, "f", -1, func(fault.Frame) error { return nil }); err == nil {
		t.Fatal("Replay accepted mid-log corruption")
	}
}

func TestFsyncPoliciesAndValidate(t *testing.T) {
	for _, p := range []string{FsyncAlways, FsyncInterval, FsyncOff, ""} {
		dir := t.TempDir()
		w, _, err := Open(Config{Dir: dir, Fsync: p, Interval: time.Millisecond}, "f")
		if err != nil {
			t.Fatalf("policy %q: %v", p, err)
		}
		appendN(t, w, 0, 10)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if got := replayAll(t, dir, "f"); len(got) != 10 {
			t.Fatalf("policy %q: replayed %d, want 10", p, len(got))
		}
	}
	bad := []Config{
		{Dir: "x", Fsync: "sometimes"},
		{Dir: "x", Interval: -time.Second},
		{Dir: "x", SegmentMaxBytes: -1},
		{Dir: "x", MaxSegments: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("bad config %d validated", i)
		}
	}
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("zero config must validate (durability off): %v", err)
	}
	for _, feed := range []string{"", ".", "..", "a/b", `a\b`} {
		if _, _, err := Open(Config{Dir: t.TempDir()}, feed); err == nil {
			t.Fatalf("feed name %q accepted", feed)
		}
	}
}

func TestListFeeds(t *testing.T) {
	dir := t.TempDir()
	if feeds, err := ListFeeds(filepath.Join(dir, "missing")); err != nil || len(feeds) != 0 {
		t.Fatalf("missing root: %v %v", feeds, err)
	}
	for _, id := range []string{"b", "a", "c"} {
		w, _, err := Open(Config{Dir: dir, Fsync: FsyncOff}, id)
		if err != nil {
			t.Fatal(err)
		}
		w.Close()
	}
	feeds, err := ListFeeds(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(feeds) != 3 || feeds[0] != "a" || feeds[1] != "b" || feeds[2] != "c" {
		t.Fatalf("feeds %v", feeds)
	}
}

func TestReplayLimitWithConcurrentAppends(t *testing.T) {
	// The serving layer replays the recovered prefix while new appends land
	// on the same last segment; the limit must fence the replay exactly.
	dir := t.TempDir()
	w, _, err := Open(Config{Dir: dir, Fsync: FsyncOff}, "f")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	appendN(t, w, 0, 30)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		appendN(t, w, 30, 200)
	}()
	var got []fault.Frame
	n, err := Replay(dir, "f", 30, func(f fault.Frame) error {
		got = append(got, f)
		return nil
	})
	<-done
	if err != nil || n != 30 || len(got) != 30 {
		t.Fatalf("limited replay: n=%d err=%v", n, err)
	}
	for i, g := range got {
		if g.Index != i {
			t.Fatalf("limited replay delivered index %d at position %d", g.Index, i)
		}
	}
}

func TestAppendLatencyMetricsRecorded(t *testing.T) {
	reg := obs.NewRegistry()
	dir := t.TempDir()
	w, _, err := OpenReplay(Config{Dir: dir, Fsync: FsyncAlways}, reg, "f", Anchor{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 5)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if v := reg.Counter("framelog_appends_total", "").Value(); v != 5 {
		t.Fatalf("appends counter %d, want 5", v)
	}
	if v := reg.Counter("framelog_fsyncs_total", "").Value(); v < 5 {
		t.Fatalf("fsync counter %d, want >= 5 under always", v)
	}
	counts := make(map[string]int64)
	for _, m := range reg.Snapshot().Metrics {
		counts[m.Name] = m.Count
	}
	if n := counts["framelog_append_seconds"]; n != 5 {
		t.Fatalf("append latency histogram holds %d observations, want 5", n)
	}
	if n := counts["framelog_fsync_seconds"]; n < 5 {
		t.Fatalf("fsync latency histogram holds %d observations, want >= 5", n)
	}
}

// TestWriterRandomKillPoints simulates a crash at a random byte position by
// copying a clean log prefix and confirming Open always recovers to a valid
// state — never a panic, never an error on a pure prefix.
func TestWriterRandomKillPoints(t *testing.T) {
	src := t.TempDir()
	w, _, err := Open(Config{Dir: src, Fsync: FsyncOff}, "f")
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 40)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(feedDir(src, "f"), segmentName(0)))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		cut := rng.Intn(len(raw) + 1)
		dir := t.TempDir()
		if err := os.MkdirAll(feedDir(dir, "f"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(feedDir(dir, "f"), segmentName(0)), raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		checkRecovery(t, dir, "f", mkFrame)
		w2, rec, err := Open(Config{Dir: dir, Fsync: FsyncOff}, "f")
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		wantFrames := 0
		if cut >= segHeaderLen {
			wantFrames = (cut - segHeaderLen) / recordLen
		}
		if rec.Frames != wantFrames {
			t.Fatalf("cut=%d: recovered %d frames, want %d", cut, rec.Frames, wantFrames)
		}
		appendN(t, w2, rec.NextIndex, 3)
		w2.Close()
		if got := replayAll(t, dir, "f"); len(got) != wantFrames+3 {
			t.Fatalf("cut=%d: %d frames after recovery appends", cut, len(got))
		}
	}
}

// TestAppendBatchMatchesAppend proves the batched write path is a pure
// syscall amortisation: for any batching of the same frame sequence —
// including batches that straddle rotation boundaries — the on-disk bytes
// are identical to per-frame Append, segment for segment.
func TestAppendBatchMatchesAppend(t *testing.T) {
	const n = 60
	cfg := func(dir string) Config {
		// ~7 records per segment, so every batching below crosses rotations.
		return Config{Dir: dir, Fsync: FsyncOff, SegmentMaxBytes: segHeaderLen + 7*recordLen}
	}
	ref := t.TempDir()
	w, _, err := Open(cfg(ref), "f")
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, n)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	refSegs, err := listSegments(feedDir(ref, "f"))
	if err != nil {
		t.Fatal(err)
	}

	for _, batch := range []int{1, 5, 7, 13, n} {
		dir := t.TempDir()
		bw, _, err := Open(cfg(dir), "f")
		if err != nil {
			t.Fatal(err)
		}
		for from := 0; from < n; from += batch {
			frames := make([]fault.Frame, 0, batch)
			for i := from; i < from+batch && i < n; i++ {
				frames = append(frames, mkFrame(i))
			}
			if n, err := bw.AppendBatch(frames); err != nil || n != len(frames) {
				t.Fatalf("batch=%d from=%d: n=%d err=%v", batch, from, n, err)
			}
		}
		if err := bw.Close(); err != nil {
			t.Fatal(err)
		}
		segs, err := listSegments(feedDir(dir, "f"))
		if err != nil {
			t.Fatal(err)
		}
		if len(segs) != len(refSegs) {
			t.Fatalf("batch=%d: %d segments, want %d", batch, len(segs), len(refSegs))
		}
		for _, seg := range segs {
			got, err := os.ReadFile(filepath.Join(feedDir(dir, "f"), segmentName(seg)))
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join(feedDir(ref, "f"), segmentName(seg)))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("batch=%d: segment %d bytes differ from per-frame Append", batch, seg)
			}
		}
		got := replayAll(t, dir, "f")
		if len(got) != n {
			t.Fatalf("batch=%d: replayed %d of %d frames", batch, len(got), n)
		}
		for i := range got {
			if !framesEqual(got[i], mkFrame(i)) {
				t.Fatalf("batch=%d: frame %d not bit-faithful", batch, i)
			}
		}
	}
}

// TestOpenAfterCrashDuringRotation pins the recovery index against a crash
// between createSegment and its header landing: the new last segment is
// empty (or mid-header) and every record lives in earlier segments.
// Recovery must hand out NextIndex = LastIndex+1, not 0 — reusing logged
// indices would make post-recovery appends collide with acknowledged
// frames and break replay.
func TestOpenAfterCrashDuringRotation(t *testing.T) {
	for _, junk := range [][]byte{nil, {0x4F, 0x46, 0x4C}} {
		dir := t.TempDir()
		w, _, err := Open(Config{Dir: dir, Fsync: FsyncOff}, "f")
		if err != nil {
			t.Fatal(err)
		}
		appendN(t, w, 0, 12)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(feedDir(dir, "f"), segmentName(1)), junk, 0o644); err != nil {
			t.Fatal(err)
		}

		w2, rec, err := Open(Config{Dir: dir, Fsync: FsyncOff}, "f")
		if err != nil {
			t.Fatalf("junk=%d: %v", len(junk), err)
		}
		if rec.Frames != 12 || rec.LastIndex != 11 || rec.NextIndex != 12 {
			t.Fatalf("junk=%d: recovery %+v, want Frames=12 LastIndex=11 NextIndex=12", len(junk), rec)
		}
		if wantTorn := len(junk) > 0; rec.TornTail != wantTorn {
			t.Fatalf("junk=%d: TornTail=%v, want %v", len(junk), rec.TornTail, wantTorn)
		}
		appendN(t, w2, rec.NextIndex, 3)
		if err := w2.Close(); err != nil {
			t.Fatal(err)
		}
		got := replayAll(t, dir, "f")
		if len(got) != 15 {
			t.Fatalf("junk=%d: replayed %d frames, want 15", len(junk), len(got))
		}
		for i, g := range got {
			if g.Index != i {
				t.Fatalf("junk=%d: index %d at position %d — indices reused after rotation crash", len(junk), g.Index, i)
			}
		}
	}
}

// tornWriteFile makes the next armed Write land only half its bytes before
// failing, emulating ENOSPC mid-write.
type tornWriteFile struct {
	segFile
	arm bool
}

func (f *tornWriteFile) Write(p []byte) (int, error) {
	if f.arm {
		f.arm = false
		n, _ := f.segFile.Write(p[:len(p)/2])
		return n, errors.New("injected: no space left on device")
	}
	return f.segFile.Write(p)
}

// TestTornWriteRepairedInPlace pins the writer's behaviour after a failed
// Write that left partial bytes on disk: the torn bytes must be truncated
// away before any further append, otherwise the next append buries them
// mid-segment and the next Open fails with ErrCorrupt.
func TestTornWriteRepairedInPlace(t *testing.T) {
	dir := t.TempDir()
	w, _, err := Open(Config{Dir: dir, Fsync: FsyncOff}, "f")
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 5)
	w.f = &tornWriteFile{segFile: w.f, arm: true}
	fr := mkFrame(5)
	if err := w.Append(&fr); err == nil {
		t.Fatal("injected write failure not reported")
	}
	// The writer stays usable and the retry lands on a record boundary.
	appendN(t, w, 5, 3)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, rec, err := Open(Config{Dir: dir, Fsync: FsyncOff}, "f")
	if err != nil {
		t.Fatalf("reopen after torn-write repair: %v", err)
	}
	defer w2.Close()
	if rec.Frames != 8 || rec.NextIndex != 8 || rec.TornTail {
		t.Fatalf("recovery %+v, want 8 clean frames", rec)
	}
	for i, g := range replayAll(t, dir, "f") {
		if !framesEqual(g, mkFrame(i)) {
			t.Fatalf("frame %d not bit-faithful after in-place repair", i)
		}
	}
}

// countdownWriteFile fails (with a partial write) the Nth record write
// across every segment the writer rotates through: the countdown is shared
// pointer state so the injection survives rotation.
type countdownWriteFile struct {
	segFile
	left *int
}

func (f *countdownWriteFile) Write(p []byte) (int, error) {
	*f.left--
	if *f.left == 0 {
		n, _ := f.segFile.Write(p[:len(p)/2])
		return n, errors.New("injected: write failed")
	}
	return f.segFile.Write(p)
}

// TestAppendBatchReportsLandedPrefix pins the batch contract the serving
// layer depends on: a batch straddling a rotation issues one write per
// segment, and when a later write fails the earlier chunks are already
// durable in sealed segments. AppendBatch must report exactly that landed
// prefix so the caller acknowledges it — treating it as rejected would let
// a client retry duplicate the frames under colliding indices.
func TestAppendBatchReportsLandedPrefix(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, Fsync: FsyncOff, SegmentMaxBytes: int64(segHeaderLen + 4*recordLen)}
	w, _, err := Open(cfg, "f")
	if err != nil {
		t.Fatal(err)
	}
	left := 2 // first chunk lands, second (post-rotation) tears
	wrap := func(sf segFile) segFile { return &countdownWriteFile{segFile: sf, left: &left} }
	w.f = wrap(w.f)
	w.wrap = wrap

	frames := make([]fault.Frame, 10)
	for i := range frames {
		frames[i] = mkFrame(i)
	}
	n, err := w.AppendBatch(frames)
	if err == nil {
		t.Fatal("injected chunk failure not reported")
	}
	if n != 4 {
		t.Fatalf("AppendBatch reported %d landed frames, want the 4 in the sealed segment", n)
	}
	// Only the landed prefix is visible to a reader.
	if got := replayAll(t, dir, "f"); len(got) != 4 {
		t.Fatalf("replay after failed batch: %d frames, want 4", len(got))
	}
	// Retrying the rejected suffix continues cleanly on a record boundary.
	if n, err := w.AppendBatch(frames[4:]); err != nil || n != 6 {
		t.Fatalf("retry: n=%d err=%v", n, err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, dir, "f")
	if len(got) != 10 {
		t.Fatalf("after retry: %d frames, want 10", len(got))
	}
	for i, g := range got {
		if !framesEqual(g, mkFrame(i)) {
			t.Fatalf("frame %d not bit-faithful across failed batch + retry", i)
		}
	}
}

// failSyncFile fails the next armed Sync.
type failSyncFile struct {
	segFile
	arm bool
}

func (f *failSyncFile) Sync() error {
	if f.arm {
		f.arm = false
		return errors.New("injected: fsync failed")
	}
	return f.segFile.Sync()
}

// TestSyncFailureLatchesWriter pins the fsync-gate semantics: after a
// failed fsync the durability of everything since the last successful sync
// is unknowable, so the writer must reject all further appends rather than
// keep acknowledging frames it cannot promise to replay.
func TestSyncFailureLatchesWriter(t *testing.T) {
	dir := t.TempDir()
	w, _, err := Open(Config{Dir: dir, Fsync: FsyncAlways}, "f")
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 1)
	w.f = &failSyncFile{segFile: w.f, arm: true}
	fr := mkFrame(1)
	if err := w.Append(&fr); err == nil {
		t.Fatal("injected sync failure not reported")
	}
	fr2 := mkFrame(2)
	if err := w.Append(&fr2); err == nil {
		t.Fatal("append accepted by a failed writer")
	}
	if n, err := w.AppendBatch([]fault.Frame{mkFrame(2)}); err == nil || n != 0 {
		t.Fatalf("batch accepted by a failed writer: n=%d err=%v", n, err)
	}
	w.Close()
	// The unacked record whose sync failed is still in the log (its write
	// landed); reopening resumes past it with no index collision.
	_, rec, err := Open(Config{Dir: dir, Fsync: FsyncAlways}, "f")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Frames != 2 || rec.NextIndex != 2 {
		t.Fatalf("recovery %+v, want the sync-failed record retained and NextIndex=2", rec)
	}
}

// TestReplayToleratesSegmentRetiredMidReplay emulates the race between an
// offline replay and a live writer's retention cap: a segment listed at
// replay start is deleted before the replay reads it. The replay must skip
// it — exactly what a listing taken after the retirement would do — not
// fail as if the log were corrupt.
func TestReplayToleratesSegmentRetiredMidReplay(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, Fsync: FsyncOff, SegmentMaxBytes: int64(segHeaderLen + 4*recordLen)}
	w, _, err := Open(cfg, "f")
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 12) // segments 0,1,2 with 4 records each
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var got []fault.Frame
	if _, err := Replay(dir, "f", -1, func(f fault.Frame) error {
		if len(got) == 0 {
			// First delivery: segment 0 is already in memory; retire
			// segment 1 before the replay reaches it.
			if err := os.Remove(filepath.Join(feedDir(dir, "f"), segmentName(1))); err != nil {
				return err
			}
		}
		got = append(got, f)
		return nil
	}); err != nil {
		t.Fatalf("replay failed on a retired segment: %v", err)
	}
	want := []int{0, 1, 2, 3, 8, 9, 10, 11}
	if len(got) != len(want) {
		t.Fatalf("replayed %d frames, want %d", len(got), len(want))
	}
	for i, g := range got {
		if g.Index != want[i] {
			t.Fatalf("position %d: index %d, want %d", i, g.Index, want[i])
		}
	}
}

// TestDirectorySyncOrder records every directory sync the writer makes and
// checks, before the first frame that depends on it is acknowledged, that
// the entry it depends on was synced after it changed: creating a feed
// syncs the log root once the feed's directory is in it and the feed's
// directory once its first segment is; a rotation syncs the feed directory
// after creating the new segment; and retention syncs it after each
// remove. Under fsync=interval the same syncs are made; under off, none.
func TestDirectorySyncOrder(t *testing.T) {
	type dirSync struct {
		dir   string
		names map[string]bool
	}
	var synced []dirSync
	orig := syncDir
	t.Cleanup(func() { syncDir = orig })
	syncDir = func(dir string) error {
		ents, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		names := make(map[string]bool)
		for _, e := range ents {
			names[e.Name()] = true
		}
		synced = append(synced, dirSync{dir, names})
		return orig(dir)
	}
	for _, policy := range []string{FsyncAlways, FsyncInterval, FsyncOff} {
		synced = nil
		root := t.TempDir()
		dir := feedDir(root, "f")
		cfg := Config{Dir: root, Fsync: policy, Interval: time.Hour, SegmentMaxBytes: segHeaderLen + 4*recordLen, MaxSegments: 3}
		// check takes the syncs made since the last check: want, in order,
		// each entry change the next acknowledgement depends on.
		check := func(when string, want ...func(dirSync) bool) {
			t.Helper()
			got := synced
			synced = nil
			if policy == FsyncOff {
				want = nil
			}
			if len(got) != len(want) {
				t.Fatalf("%s, %s: %d directory syncs, want %d", policy, when, len(got), len(want))
			}
			for i, ok := range want {
				if !ok(got[i]) {
					t.Fatalf("%s, %s: sync %d of %s (holding %v) is out of order", policy, when, i, got[i].dir, got[i].names)
				}
			}
		}
		holds := func(d string, name string, in bool) func(dirSync) bool {
			return func(s dirSync) bool { return s.dir == d && s.names[name] == in }
		}
		w, _, err := Open(cfg, "f")
		if err != nil {
			t.Fatal(err)
		}
		check("creating the feed", holds(root, "f", true), holds(dir, segmentName(0), true))
		frames := 0
		appendAck := func(when string, want ...func(dirSync) bool) {
			t.Helper()
			f := mkFrame(frames)
			if err := w.Append(&f); err != nil {
				t.Fatal(err)
			}
			frames++
			check(when, want...)
		}
		for seg := 0; seg < 3; seg++ { // segments 0..2 fill, no retention yet
			for i := 0; i < 4; i++ {
				if seg > 0 && i == 0 {
					appendAck("rotating", holds(dir, segmentName(seg), true))
				} else {
					appendAck("appending")
				}
			}
		}
		appendAck("rotating into the cap", holds(dir, segmentName(3), true), holds(dir, segmentName(0), false))
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		// Reopened under a cap of one: the next rotation retires three
		// segments, each removal synced before the next.
		cfg.MaxSegments = 1
		if w, _, err = Open(cfg, "f"); err != nil {
			t.Fatal(err)
		}
		check("reopening")
		for i := 1; i < 4; i++ {
			appendAck("appending")
		}
		appendAck("retiring three segments", holds(dir, segmentName(4), true),
			func(s dirSync) bool { return holds(dir, segmentName(1), false)(s) && s.names[segmentName(2)] },
			func(s dirSync) bool { return holds(dir, segmentName(2), false)(s) && s.names[segmentName(3)] },
			holds(dir, segmentName(3), false))
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
