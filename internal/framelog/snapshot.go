package framelog

import (
	"encoding/binary"
	"fmt"
	"path/filepath"

	"repro/internal/atomicfile"
)

// Snapshot file, one per feed beside its segments: the atomicfile envelope
// (magic 0x504E534F "OSNP", version 1, length, CRC32-C) around a body of at
// most maxSnapshotBody bytes, little-endian:
//
//	next    uint64  records 0..next-1 covered
//	anchor  uint32  stored CRC of record next-1
//	scorer  uint16 length ≤ maxScorerLen, then its bytes
//	state   the rest, opaque here
const (
	snapshotName    = "snapshot"
	snapMagic       = 0x504E534F
	snapVersion     = 1
	snapFixedLen    = 8 + 4 + 2
	maxSnapshotBody = 1 << 20
	maxScorerLen    = 1 << 10
)

// Why an anchor does not hold in the log (Recovery.Stale): record Next-1 is
// logged with another CRC; the log ends before it (a power loss dropped
// frames the snapshot covers); or it was retired, so it cannot be checked.
const (
	AnchorMismatch = "anchor_mismatch"
	BeyondLog      = "beyond_log"
	BeforeLog      = "before_log"
)

// Anchor ties a state to the log it was derived from: it covers Next frames,
// and record Next-1 carries the stored checksum CRC. The zero Anchor asks
// for no resumption.
type Anchor struct {
	Next int
	CRC  uint32
}

// stale says why a, which no retained record matched, does not hold in the
// log rec describes ("" for the zero Anchor).
func (a Anchor) stale(rec Recovery) string {
	switch {
	case a.Next == 0:
		return ""
	case a.Next-1 > rec.LastIndex:
		return BeyondLog
	case a.Next-1 < rec.FirstIndex:
		return BeforeLog
	}
	return AnchorMismatch
}

// Snapshot is a feed's decision state at its anchor, with the identity of the
// scorer that produced it.
type Snapshot struct {
	Anchor
	Scorer string
	State  []byte
}

// EncodeSnapshot encodes s as a snapshot file.
func EncodeSnapshot(s Snapshot) []byte {
	le := binary.LittleEndian
	b := le.AppendUint64(nil, uint64(s.Next))
	b = le.AppendUint32(b, s.CRC)
	b = le.AppendUint16(b, uint16(len(s.Scorer)))
	return atomicfile.Seal(snapMagic, snapVersion, append(append(b, s.Scorer...), s.State...))
}

// ParseSnapshot validates a snapshot file — the envelope, then the body's
// bounds — and decodes it; State aliases b, and nothing but the capped
// scorer string is allocated.
func ParseSnapshot(b []byte) (Snapshot, error) {
	body, err := atomicfile.Unseal(snapMagic, snapVersion, b)
	if err != nil {
		return Snapshot{}, fmt.Errorf("framelog: snapshot: %w", err)
	}
	return parseSnapshotBody(body)
}

// parseSnapshotBody decodes a snapshot's checked body.
func parseSnapshotBody(body []byte) (Snapshot, error) {
	le := binary.LittleEndian
	if len(body) < snapFixedLen {
		return Snapshot{}, fmt.Errorf("framelog: a %d-byte snapshot body is too short", len(body))
	}
	next, n := le.Uint64(body), int(le.Uint16(body[12:]))
	if next == 0 || next > 1<<62 || n > maxScorerLen || snapFixedLen+n > len(body) {
		return Snapshot{}, fmt.Errorf("framelog: snapshot anchor %d or scorer length %d out of range", next, n)
	}
	return Snapshot{Anchor: Anchor{Next: int(next), CRC: le.Uint32(body[8:])},
		Scorer: string(body[snapFixedLen : snapFixedLen+n]), State: body[snapFixedLen+n:]}, nil
}

// ReadSnapshot reads and parses a feed's snapshot; a feed without one
// answers an error matching fs.ErrNotExist. A file past the body cap is
// refused unread.
func ReadSnapshot(root, feed string) (Snapshot, error) {
	if err := validFeedName(feed); err != nil {
		return Snapshot{}, err
	}
	body, err := atomicfile.ReadSealed(filepath.Join(feedDir(root, feed), snapshotName), snapMagic, snapVersion, maxSnapshotBody)
	if err != nil {
		return Snapshot{}, err
	}
	return parseSnapshotBody(body)
}

// SaveSnapshot makes state — the feed's decision state after the last frame
// appended — its snapshot, stamped with the scorer that produced it and
// anchored to that frame's record. The log is synced first, so a snapshot
// never covers a frame the device may not hold, and the file is replaced
// by atomicfile.WriteFile (temporary file, fsync, rename, directory
// fsync). Retention then keeps the anchor's segment (see rotate). With
// nothing logged there is nothing to anchor to, and nothing is written.
func (w *Writer) SaveSnapshot(scorer string, state []byte) error {
	if w.closed || w.failed {
		return fmt.Errorf("framelog: %s: no snapshot from a closed or failed writer", w.feed)
	}
	if w.anchor.Next == 0 {
		return nil
	}
	if err := w.sync(); err != nil {
		return err
	}
	file := EncodeSnapshot(Snapshot{Anchor: w.anchor, Scorer: scorer, State: state})
	if err := atomicfile.WriteFile(filepath.Join(w.dir, snapshotName), file); err != nil {
		return err
	}
	w.snapSeg = w.anchorSeg
	return nil
}
