package framelog

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"repro/internal/atomicfile"
)

// Snapshot file, one per feed beside its segments, little-endian:
//
//	magic   uint32  0x504E534F ("OSNP")
//	version uint32  1
//	length  uint32  body bytes, at most maxSnapshotBody
//	crc32   uint32  Castagnoli, over the body
//	body:   next uint64 (records 0..next-1 covered) | anchor uint32 (stored
//	        CRC of record next-1) | scorer (uint16 length ≤ maxScorerLen,
//	        bytes) | state (the rest, opaque here)
const (
	snapshotName    = "snapshot"
	snapMagic       = 0x504E534F
	snapHeaderLen   = 16
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
	b := le.AppendUint32(nil, snapMagic)
	b = le.AppendUint32(b, 1)
	b = le.AppendUint32(b, uint32(snapFixedLen+len(s.Scorer)+len(s.State)))
	b = le.AppendUint32(b, 0) // CRC backfilled below
	b = le.AppendUint64(b, uint64(s.Next))
	b = le.AppendUint32(b, s.CRC)
	b = le.AppendUint16(b, uint16(len(s.Scorer)))
	b = append(append(b, s.Scorer...), s.State...)
	le.PutUint32(b[12:], crc32.Checksum(b[snapHeaderLen:], crcTable))
	return b
}

// ParseSnapshot validates a snapshot file — magic, version, length, CRC,
// then the body's bounds — and decodes it; State aliases b, and nothing but
// the capped scorer string is allocated.
func ParseSnapshot(b []byte) (Snapshot, error) {
	le := binary.LittleEndian
	if len(b) < snapHeaderLen+snapFixedLen || le.Uint32(b) != snapMagic || le.Uint32(b[4:]) != 1 {
		return Snapshot{}, fmt.Errorf("framelog: not a version-1 snapshot (%d bytes)", len(b))
	}
	body := b[snapHeaderLen:]
	if int64(le.Uint32(b[8:])) != int64(len(body)) || len(body) > maxSnapshotBody ||
		crc32.Checksum(body, crcTable) != le.Uint32(b[12:]) {
		return Snapshot{}, fmt.Errorf("framelog: snapshot fails its length or CRC check")
	}
	next, n := le.Uint64(body), int(le.Uint16(body[12:]))
	if next == 0 || next > 1<<62 || n > maxScorerLen || snapFixedLen+n > len(body) {
		return Snapshot{}, fmt.Errorf("framelog: snapshot anchor %d or scorer length %d out of range", next, n)
	}
	return Snapshot{Anchor: Anchor{Next: int(next), CRC: le.Uint32(body[8:])},
		Scorer: string(body[snapFixedLen : snapFixedLen+n]), State: body[snapFixedLen+n:]}, nil
}

// ReadSnapshot reads and parses a feed's snapshot; a feed without one
// answers an error matching fs.ErrNotExist. Reading stops past the largest
// valid file.
func ReadSnapshot(root, feed string) (Snapshot, error) {
	if err := validFeedName(feed); err != nil {
		return Snapshot{}, err
	}
	f, err := os.Open(filepath.Join(feedDir(root, feed), snapshotName))
	if err != nil {
		return Snapshot{}, err
	}
	defer f.Close()
	b, err := io.ReadAll(io.LimitReader(f, snapHeaderLen+maxSnapshotBody+1))
	if err != nil {
		return Snapshot{}, err
	}
	return ParseSnapshot(b)
}

// SaveSnapshot makes state — the feed's decision state after the last frame
// appended — its snapshot, stamped with the scorer that produced it and
// anchored to that frame's record. The log is synced first, so a snapshot
// never covers a frame the device may not hold, and the file is replaced
// atomically (temporary file, fsync, rename). The rename is not synced: a
// crash that loses it leaves the previous snapshot, which anchors earlier or
// not at all — recovery replays more, never wrongly. With nothing logged
// there is nothing to anchor to, and nothing is written.
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
	tmp := filepath.Join(w.dir, snapshotName+".tmp")
	f, err := os.Create(tmp)
	if err == nil {
		err = atomicfile.CloseSynced(f, func(dst io.Writer) error {
			_, err := dst.Write(EncodeSnapshot(Snapshot{Anchor: w.anchor, Scorer: scorer, State: state}))
			return err
		})
	}
	if err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(w.dir, snapshotName))
}
