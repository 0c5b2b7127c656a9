package framelog

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/fault"
)

// walk is the one pass over a feed's log that OpenReplay and Replay share:
// segments in order, each read whole into one reused buffer, each record
// validated — length, then CRC — and its payload handed to visit, which
// returns false to end the walk early. The torn-tail rule lives here and
// nowhere else: an invalid record or a short header in the last segment was
// never acknowledged, so the walk ends cleanly there and reports (end, torn),
// the last segment's valid length and the bytes after it; anywhere earlier
// it cannot be a torn append (rotation syncs a segment before the next
// exists) and fails with ErrCorrupt. skipRetired is for readers beside a
// live writer, whose retention cap may retire a listed segment before the
// walk reaches it: retired, not corrupt.
func walk(dir, feed string, segs []int, skipRetired bool, visit func(payload []byte) bool) (end, torn int64, err error) {
	var raw []byte
	for i, seg := range segs {
		lastSeg := i == len(segs)-1
		name := segmentName(seg)
		if raw, err = readSegment(filepath.Join(dir, name), raw); err != nil {
			if skipRetired && os.IsNotExist(err) {
				continue
			}
			return 0, 0, err
		}
		// good is the segment's valid prefix: nothing without a whole header
		// (createSegment crashed), else it and every record that checks out.
		good := 0
		if len(raw) >= segHeaderLen {
			if err := checkSegmentHeader(raw); err != nil {
				return 0, 0, fmt.Errorf("framelog: %s/%s: %w", feed, name, err)
			}
			for good = segHeaderLen; good < len(raw); good += recordLen {
				payload, ok := checkRecord(raw[good:])
				if !ok {
					break
				}
				if !visit(payload) {
					return 0, 0, nil
				}
			}
		}
		if !lastSeg && (good == 0 || good < len(raw)) {
			return 0, 0, fmt.Errorf("framelog: %s/%s offset %d: %w", feed, name, good, ErrCorrupt)
		}
		end, torn = int64(good), int64(len(raw)-good)
	}
	return end, torn, nil
}

// readSegment reads a segment file, as long as it is now, into a reused buf.
func readSegment(path string, buf []byte) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return buf, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return buf, err
	}
	if int64(cap(buf)) < fi.Size() {
		buf = make([]byte, fi.Size())
	}
	n, err := io.ReadFull(f, buf[:fi.Size()])
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		err = nil // shorter than a moment ago: what is there is the file
	}
	return buf[:n], err
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
	_, _, err = walk(dir, feed, segs, true, func(payload []byte) bool {
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
