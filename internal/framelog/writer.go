package framelog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/atomicfile"
	"repro/internal/fault"
	"repro/internal/obs"
)

// syncDir makes the entries created or removed in a directory durable; tests
// swap it to record the order of the writer's directory syncs.
var syncDir = atomicfile.SyncDir

// segFile is the surface the writer needs from the active segment file.
// Production always uses *os.File; tests substitute implementations that
// inject partial writes and sync failures.
type segFile interface {
	io.Writer
	io.Seeker
	Sync() error
	Close() error
	Truncate(size int64) error
}

// Recovery describes what Open found in an existing feed log.
type Recovery struct {
	// Frames is how many valid records the log holds. OpenReplay delivers
	// all of them, or — when its anchor holds — those after the anchor.
	Frames int
	// FirstIndex / LastIndex are the frame indices bounding the retained
	// records (0/-1 on an empty log). FirstIndex is 0 unless the retention
	// cap retired early segments.
	FirstIndex int
	LastIndex  int
	// NextIndex is the index the next appended frame must carry.
	NextIndex int
	// TornTail reports that the last segment ended in a torn or corrupt
	// record; TruncatedBytes is how much was cut repairing it.
	TornTail       bool
	TruncatedBytes int64
	// Stale says why the anchor OpenReplay was given does not hold
	// (AnchorMismatch, BeyondLog or BeforeLog), in which case nothing was
	// delivered; "" when it holds or none was given.
	Stale string
}

// Writer appends frames to one feed's log. It is not safe for concurrent
// use — the serving layer serialises appends under the feed's ingest lock,
// which also fixes the record order to the accepted frame order.
type Writer struct {
	cfg  Config
	feed string
	dir  string
	m    metrics

	f        segFile
	seg      int   // active segment number
	segs     []int // live segment numbers, ascending
	segBytes int64
	anchor   Anchor // the last appended record: what a snapshot taken now covers
	lastSync time.Time
	buf      []byte
	closed   bool

	anchorSeg int // the segment holding anchor's record
	snapSeg   int // the one holding the newest snapshot's anchor, which retention keeps; -1 for none

	// failed latches after an I/O error the writer cannot repair in place
	// (a sync failure, a dead rotation, or a torn write it could not
	// truncate away): every further append is rejected, because appending
	// past an unknown on-disk state could bury torn bytes mid-segment and
	// turn a repairable tail into ErrCorrupt at the next Open.
	failed bool
	// wrap, when non-nil, wraps each newly created segment file; tests use
	// it to inject write and sync failures mid-stream.
	wrap func(segFile) segFile
}

// Open is OpenReplay with nobody listening and no metrics: a retained
// record costs one CRC and an index read, and nothing is decoded.
func Open(cfg Config, feed string) (*Writer, Recovery, error) {
	return OpenReplay(cfg, nil, feed, Anchor{}, nil)
}

// OpenReplay opens (or creates) the log for one feed in one pass over what
// it holds: each retained record is validated and, once it passes its CRC,
// decoded and handed to fn (when non-nil) in append order — one read, one
// checksum, one decode per logged frame. fn gets one frame reused from
// record to record and must not keep the pointer. A torn tail is repaired by
// truncating the last segment to its final valid record; corruption before
// the tail fails with ErrCorrupt — acknowledged data is never silently
// dropped. On success fn has seen exactly Recovery.Frames frames; on failure
// the valid records ahead of the fault, which the caller must discard.
//
// A non-zero from resumes instead (the caller holds a snapshot's state):
// every record is still read and checked, but none is decoded until record
// from.Next-1 turns up with CRC from.CRC; fn then sees only the frames after
// it. When no record matches, Recovery.Stale says why and fn has seen
// nothing.
//
// o, when non-nil, receives the writer's framelog_* metrics (append/fsync
// latency histograms, rotation and recovery counters).
func OpenReplay(cfg Config, o obs.Observer, feed string, from Anchor, fn func(*fault.Frame)) (*Writer, Recovery, error) {
	var rec Recovery
	if err := cfg.Validate(); err != nil {
		return nil, rec, err
	}
	if !cfg.Enabled() {
		return nil, rec, fmt.Errorf("framelog: Config.Dir is required")
	}
	if err := validFeedName(feed); err != nil {
		return nil, rec, err
	}
	cfg = cfg.withDefaults()
	w := &Writer{
		cfg:      cfg,
		feed:     feed,
		dir:      feedDir(cfg.Dir, feed),
		m:        newMetrics(o),
		snapSeg:  -1,
		lastSync: time.Now(),
		buf:      make([]byte, 0, recordLen),
	}
	if err := os.MkdirAll(w.dir, 0o755); err != nil {
		return nil, rec, err
	}
	segs, err := listSegments(w.dir)
	if err != nil {
		return nil, rec, err
	}
	rec.LastIndex = -1
	if len(segs) == 0 {
		// A new feed: its directory's entry, then its first segment's.
		if err := w.syncEntries(cfg.Dir); err != nil {
			return nil, rec, err
		}
		if err := w.createSegment(0); err != nil {
			return nil, rec, err
		}
		w.segs = []int{0}
		rec.Stale = from.stale(rec)
		return w, rec, nil
	}

	var frame fault.Frame
	deliver := from.Next == 0
	lastEnd, torn, err := walk(w.dir, feed, segs, false, func(seg int, payload []byte, crc uint32) bool {
		rec.LastIndex = payloadIndex(payload)
		if rec.Frames == 0 {
			rec.FirstIndex = rec.LastIndex
		}
		rec.Frames++
		if deliver && fn != nil {
			decodePayload(&frame, payload)
			fn(&frame)
		}
		if from.Next > 0 && rec.LastIndex == from.Next-1 {
			if deliver = crc == from.CRC; deliver {
				w.snapSeg = seg
			}
		}
		w.anchor.CRC, w.anchorSeg = crc, seg
		return true
	})
	if err != nil {
		return nil, rec, err
	}
	if !deliver {
		rec.Stale = from.stale(rec)
	}
	// LastIndex, not the last segment: a header-less one holds no record.
	rec.NextIndex = rec.LastIndex + 1
	w.anchor.Next = rec.NextIndex
	rec.TornTail = torn > 0
	rec.TruncatedBytes = torn
	last := segs[len(segs)-1]
	path := filepath.Join(w.dir, segmentName(last))
	if rec.TornTail {
		if err := os.Truncate(path, lastEnd); err != nil {
			return nil, rec, fmt.Errorf("framelog: repairing %s/%s: %w", feed, segmentName(last), err)
		}
		w.m.tornTails.Inc()
		w.m.truncated.Add(rec.TruncatedBytes)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, rec, err
	}
	w.f = f
	w.seg = last
	w.segs = segs
	w.segBytes = lastEnd
	if lastEnd < segHeaderLen {
		// The segment was created but its header never fully landed: only a
		// header-less empty file repairs to this. Rewrite the header.
		if _, err := f.Write(segmentHeader()[lastEnd:]); err != nil {
			f.Close()
			return nil, rec, err
		}
		w.segBytes = segHeaderLen
	}
	if rec.TornTail {
		// Make the repair itself durable before accepting new appends.
		if err := w.sync(); err != nil {
			f.Close()
			return nil, rec, err
		}
	}
	w.m.recovered.Add(int64(rec.Frames))
	return w, rec, nil
}

// createSegment starts segment n as the active one, its entry synced.
func (w *Writer) createSegment(n int) error {
	f, err := os.OpenFile(filepath.Join(w.dir, segmentName(n)), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if _, err = f.Write(segmentHeader()); err == nil {
		err = w.syncEntries(w.dir)
	}
	if err != nil {
		f.Close()
		return err
	}
	var sf segFile = f
	if w.wrap != nil {
		sf = w.wrap(sf)
	}
	w.f = sf
	w.seg = n
	w.segBytes = segHeaderLen
	return nil
}

// truncateTorn repairs a failed write that may have left partial bytes in
// the active segment: the file is cut back to the last record boundary
// (segBytes) and the fd offset rewound to match — a freshly created
// segment is not opened O_APPEND, so without the seek the next write would
// land at the stale offset and re-extend the file over a zero-filled hole.
// The writer then stays usable and a later append cannot bury the torn
// bytes mid-segment, which would turn a repairable torn tail into
// ErrCorrupt at the next Open. If the repair itself fails the writer
// latches failed instead.
func (w *Writer) truncateTorn() {
	if err := w.f.Truncate(w.segBytes); err != nil {
		w.failed = true
		return
	}
	if _, err := w.f.Seek(w.segBytes, io.SeekStart); err != nil {
		w.failed = true
	}
}

// errFailed is the permanent rejection after failed latches.
func (w *Writer) errFailed() error {
	return fmt.Errorf("framelog: %s: writer disabled by an earlier unrecoverable I/O error; reopen to resume", w.feed)
}

// Append writes one frame: AppendBatch on a one-element batch, so it rotates,
// repairs a torn write and applies the fsync policy exactly as a batch does.
func (w *Writer) Append(f *fault.Frame) error {
	_, err := w.AppendBatch([]fault.Frame{*f})
	return err
}

// AppendBatch appends frames with one write per segment touched (for any
// realistic segment size: one write, full stop) and one fsync-policy check
// for the whole batch, amortising the per-frame syscall cost of appending one
// frame at a time — the serving layer logs each accepted ingest batch through
// this.
//
// It returns how many leading frames have fully-written records in the
// log. A batch that straddles a rotation issues one write per segment, so
// an error partway through is NOT all-or-nothing: the chunks already
// written are durable in sealed segments and cannot be unwritten. The
// caller must treat exactly frames[:n] as logged (they will replay on
// recovery) and only frames[n:] as rejected — reporting the landed prefix
// as rejected would let a client retry duplicate those frames under
// colliding indices. The failing chunk's own torn bytes are truncated
// away in place, so the writer stays usable unless the error was
// unrecoverable (see errFailed). After a sync error n covers every record
// written — they are in the kernel, just not provably on the device — and
// the writer latches failed because the durability of everything since the
// last successful sync is unknowable.
func (w *Writer) AppendBatch(frames []fault.Frame) (int, error) {
	if len(frames) == 0 {
		return 0, nil
	}
	if w.closed {
		return 0, fmt.Errorf("framelog: append to closed writer (%s)", w.feed)
	}
	if w.failed {
		return 0, w.errFailed()
	}
	var t0 time.Time
	if w.m.appendLat != nil {
		t0 = time.Now()
	}
	written := 0
	for written < len(frames) {
		if w.segBytes+recordLen > w.cfg.SegmentMaxBytes && w.segBytes > segHeaderLen {
			if err := w.rotate(); err != nil {
				w.m.appendErrors.Inc()
				return written, err
			}
		}
		// Fill the active segment; a fresh segment always takes at least one
		// record, however small SegmentMaxBytes is.
		fit := int((w.cfg.SegmentMaxBytes - w.segBytes) / recordLen)
		if fit < 1 {
			fit = 1
		}
		n := len(frames) - written
		if n > fit {
			n = fit
		}
		w.buf = w.buf[:0]
		for k := 0; k < n; k++ {
			w.buf = appendRecord(w.buf, &frames[written+k])
		}
		if _, err := w.f.Write(w.buf); err != nil {
			w.truncateTorn()
			w.m.appendErrors.Inc()
			return written, err
		}
		w.anchorAt(&frames[written+n-1])
		w.segBytes += int64(len(w.buf))
		w.m.appends.Add(int64(n))
		w.m.bytes.Add(int64(len(w.buf)))
		written += n
	}
	if err := w.maybeSync(); err != nil {
		w.m.appendErrors.Inc()
		return written, err
	}
	if w.m.appendLat != nil {
		w.m.appendLat.Observe(time.Since(t0).Seconds())
	}
	return written, nil
}

// anchorAt records that f, whose record ends w.buf, is the log's last frame.
func (w *Writer) anchorAt(f *fault.Frame) {
	w.anchor = Anchor{Next: f.Index + 1, CRC: binary.LittleEndian.Uint32(w.buf[len(w.buf)-recordLen+4:])}
	w.anchorSeg = w.seg
}

// Segment returns the number of the active segment; it advances each time a
// segment seals.
func (w *Writer) Segment() int { return w.seg }

// maybeSync applies the fsync policy after an append: unconditional under
// FsyncAlways, deadline-driven under FsyncInterval, never under FsyncOff.
func (w *Writer) maybeSync() error {
	switch w.cfg.Fsync {
	case FsyncAlways:
		return w.sync()
	case FsyncInterval:
		if time.Since(w.lastSync) >= w.cfg.Interval {
			return w.sync()
		}
	}
	return nil
}

// syncEntries makes dir's entries durable, unless the fsync policy is off.
func (w *Writer) syncEntries(dir string) error {
	if w.cfg.Fsync == FsyncOff {
		return nil
	}
	return syncDir(dir)
}

// sync forces the active segment to the device. A sync failure latches the
// writer failed: the kernel may have dropped the dirty pages, so the
// durability of every write since the last successful sync is unknowable
// and no later sync can retroactively cover them — acking more frames on
// top of that would be a lie.
func (w *Writer) sync() error {
	var t0 time.Time
	if w.m.fsyncLat != nil {
		t0 = time.Now()
	}
	if err := w.f.Sync(); err != nil {
		w.failed = true
		return err
	}
	if w.m.fsyncLat != nil {
		w.m.fsyncLat.Observe(time.Since(t0).Seconds())
	}
	w.m.fsyncs.Inc()
	w.lastSync = time.Now()
	return nil
}

// rotate seals the active segment (synced regardless of policy, so every
// non-last segment is fully durable and the reader may treat corruption
// there as real) and starts the next, retiring the oldest segments past the
// retention cap — but never the newest snapshot's anchor segment: a sealing
// batch's snapshot lands only once the batch is decided, so the cap may be
// exceeded until then.
func (w *Writer) rotate() error {
	if err := w.sync(); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		w.failed = true
		return err
	}
	if err := w.createSegment(w.seg + 1); err != nil {
		// The sealed segment is closed and no new one exists: there is no
		// active file left to append to.
		w.failed = true
		return err
	}
	w.segs = append(w.segs, w.seg)
	w.m.rotations.Inc()
	// Retire the oldest segments beyond the MaxSegments cap.
	max := w.cfg.MaxSegments
	if max <= 0 {
		return nil
	}
	for len(w.segs) > max && w.segs[0] != w.snapSeg {
		if err := os.Remove(filepath.Join(w.dir, segmentName(w.segs[0]))); err != nil {
			return err
		}
		if err := w.syncEntries(w.dir); err != nil {
			return err
		}
		w.segs = w.segs[1:]
		w.m.retired.Inc()
	}
	return nil
}

// Flush forces everything appended so far to the device, whatever the fsync
// policy. The serving layer never needs it — SaveSnapshot and Close sync the
// log themselves; the benchmark's sync probe times it.
func (w *Writer) Flush() error {
	if w.closed {
		return nil
	}
	return w.sync()
}

// Close flushes and closes the active segment. Idempotent.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	return errors.Join(w.f.Sync(), w.f.Close())
}
