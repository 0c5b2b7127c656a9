package framelog

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/fault"
)

// walk is the one pass over a feed's log that OpenReplay and Replay share:
// segments in order, each read a chunk of records at a time through one
// pooled buffer, each record validated — length, then CRC — and its segment
// number, payload and stored CRC handed to visit, which returns false to end
// the walk early; a payload is valid only until visit returns. The
// torn-tail rule lives here and nowhere else: an invalid record or a short
// header in the last segment was never acknowledged, so the walk ends
// cleanly there and reports (end, torn), the last segment's valid length and
// the bytes after it; anywhere earlier it cannot be a torn append (rotation
// syncs a segment before the next exists) and fails with ErrCorrupt.
// skipRetired is for readers beside a live writer, whose retention cap may
// retire a listed segment before the walk reaches it: retired, not corrupt.
func walk(dir, feed string, segs []int, skipRetired bool, visit func(seg int, payload []byte, crc uint32) bool) (end, torn int64, err error) {
	buf := chunks.Get().(*[walkChunk]byte)
	defer chunks.Put(buf)
	for i, seg := range segs {
		name := segmentName(seg)
		good, size, stopped, err := walkSegment(seg, filepath.Join(dir, name), feed+"/"+name, buf[:], visit)
		switch {
		case skipRetired && os.IsNotExist(err):
			continue
		case err != nil:
			return 0, 0, err
		case stopped:
			return 0, 0, nil
		case i < len(segs)-1 && (good == 0 || good < size):
			return 0, 0, fmt.Errorf("framelog: %s/%s offset %d: %w", feed, name, good, ErrCorrupt)
		}
		end, torn = good, size-good
	}
	return end, torn, nil
}

// walkChunk is how much of a segment walk reads at a time: a whole number of
// records and few reads a segment, and — pooled — no segment-sized buffer
// per feed for a restart that reads every log back to back at CRC speed.
const walkChunk = 256 * recordLen

var chunks = sync.Pool{New: func() any { return new([walkChunk]byte) }}

// walkSegment reads segment seg, as long as it is when opened, through buf
// and hands visit each record up to the first that fails its check. good is
// the valid prefix — nothing without a whole header (createSegment crashed),
// else the header and the records that check out — and size what the file
// held; stopped reports that visit ended the walk.
func walkSegment(seg int, path, label string, buf []byte, visit func(seg int, payload []byte, crc uint32) bool) (good, size int64, stopped bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, false, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, 0, false, err
	}
	r := io.LimitReader(f, fi.Size())
	if n, err := io.ReadFull(r, buf[:segHeaderLen]); n < segHeaderLen {
		return 0, int64(n), false, atEnd(err)
	}
	if err := checkSegmentHeader(buf); err != nil {
		return 0, 0, false, fmt.Errorf("framelog: %s: %w", label, err)
	}
	good, size = segHeaderLen, segHeaderLen
	for valid := true; ; {
		n, err := io.ReadFull(r, buf)
		for at := 0; valid && at < n; at += recordLen {
			payload, crc, ok := checkRecord(buf[at:n])
			if valid = ok; ok {
				good += recordLen
				if !visit(seg, payload, crc) {
					return 0, 0, true, nil
				}
			}
		}
		if size += int64(n); err != nil {
			return good, size, false, atEnd(err)
		}
	}
}

// atEnd drops the error of a read that ran out of file: a segment shorter
// than a moment ago is, for the reader, what it now holds.
func atEnd(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return nil
	}
	return err
}

// Replay streams a feed's logged frames, in append order, through fn. A
// torn tail — a short or CRC-failing record at the very end of the last
// segment — ends the replay cleanly (those bytes were never acknowledged);
// corruption anywhere earlier fails with ErrCorrupt. limit >= 0 stops after
// that many frames — a known prefix, whatever a live writer appends behind
// it — and a negative limit replays everything. A non-nil error from fn
// aborts the replay and is returned. Returns the number of frames delivered.
func Replay(root, feed string, limit int, fn func(fault.Frame) error) (int, error) {
	if err := validFeedName(feed); err != nil {
		return 0, err
	}
	dir := feedDir(root, feed)
	segs, err := listSegments(dir)
	if err != nil && !os.IsNotExist(err) {
		return 0, err
	}
	if limit == 0 {
		segs = nil
	}
	delivered := 0
	var f fault.Frame
	var fnErr error
	_, _, err = walk(dir, feed, segs, true, func(_ int, payload []byte, _ uint32) bool {
		decodePayload(&f, payload)
		if fnErr = fn(f); fnErr != nil {
			return false
		}
		delivered++
		return delivered != limit
	})
	if fnErr != nil {
		err = fnErr
	}
	return delivered, err
}
