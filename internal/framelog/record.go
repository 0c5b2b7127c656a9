package framelog

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"time"

	"repro/internal/csi"
	"repro/internal/fault"
)

// On-disk format, little-endian throughout.
//
// Segment file:
//
//	magic   uint32  0x4F464C47 ("OFLG")
//	version uint32  1
//	records…
//
// Record:
//
//	length  uint32  payload bytes (must equal payloadLen for version 1)
//	crc32   uint32  Castagnoli, over the payload bytes
//	payload:
//	  index    uint64   frame index in the feed's accepted sequence
//	  unixns   int64    Rec.Time as Unix nanoseconds (UTC on decode)
//	  temp     float64  Rec.Temp bits
//	  humidity float64  Rec.Humidity bits
//	  count    uint32   Rec.Count
//	  walking  uint32   Rec.Walking
//	  nulled   uint32   Frame.Nulled
//	  flags    uint8    bit0 Dropped, bit1 EnvOK, bit2 EnvStale, bit3 AGCGlitch
//	  csi      float64[NumSubcarriers]  Rec.CSI bits
//
// Floats are stored as raw IEEE-754 bits, so a decoded frame replays to the
// same decisions bit for bit. Truth is not stored: on the server's ingest
// path Truth is defined as Rec (there is no separate ground truth on the
// wire), and decisions never read it.
const (
	segMagic   = 0x4F464C47
	segVersion = 1

	segHeaderLen = 8
	recHeaderLen = 8
	payloadLen   = 8 + 8 + 8 + 8 + 4 + 4 + 4 + 1 + 8*csi.NumSubcarriers
	recordLen    = recHeaderLen + payloadLen
)

// crcTable selects the Castagnoli polynomial: hash/crc32 dispatches it to
// the hardware CRC32 instruction on amd64/arm64, which keeps the checksum
// out of the append hot path's profile (IEEE stays software slicing-by-8
// and measured ~4x slower per record here). The atomicfile envelope uses
// the same polynomial.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Frame flag bits.
const (
	flagDropped = 1 << iota
	flagEnvOK
	flagEnvStale
	flagAGCGlitch
)

// appendRecord encodes one frame (header + payload) onto dst.
func appendRecord(dst []byte, f *fault.Frame) []byte {
	le := binary.LittleEndian
	dst = le.AppendUint32(dst, payloadLen)
	crcAt := len(dst)
	dst = le.AppendUint32(dst, 0) // CRC backfilled below
	payloadAt := len(dst)

	dst = le.AppendUint64(dst, uint64(f.Index))
	dst = le.AppendUint64(dst, uint64(f.Rec.Time.UnixNano()))
	dst = le.AppendUint64(dst, math.Float64bits(f.Rec.Temp))
	dst = le.AppendUint64(dst, math.Float64bits(f.Rec.Humidity))
	dst = le.AppendUint32(dst, uint32(f.Rec.Count))
	dst = le.AppendUint32(dst, uint32(f.Rec.Walking))
	dst = le.AppendUint32(dst, uint32(f.Nulled))
	var flags byte
	if f.Dropped {
		flags |= flagDropped
	}
	if f.EnvOK {
		flags |= flagEnvOK
	}
	if f.EnvStale {
		flags |= flagEnvStale
	}
	if f.AGCGlitch {
		flags |= flagAGCGlitch
	}
	dst = append(dst, flags)
	for k := range f.Rec.CSI {
		dst = le.AppendUint64(dst, math.Float64bits(f.Rec.CSI[k]))
	}
	le.PutUint32(dst[crcAt:], crc32.Checksum(dst[payloadAt:], crcTable))
	return dst
}

// checkRecord validates the record at the start of raw — length, then CRC —
// and returns its payload, aliasing raw, without decoding it, and its stored
// CRC. ok=false is a short, mis-sized or CRC-failing record; the caller
// decides whether that is a torn tail (stop) or corruption (error).
func checkRecord(raw []byte) (payload []byte, crc uint32, ok bool) {
	le := binary.LittleEndian
	// Version 1 records are fixed-size: any other length — zero from a
	// preallocated-then-torn region, or huge from corrupt bytes — is
	// invalid, and rejecting it here caps what a hostile file can make the
	// reader allocate or skip.
	if len(raw) < recordLen || le.Uint32(raw) != payloadLen {
		return nil, 0, false
	}
	payload, crc = raw[recHeaderLen:recordLen], le.Uint32(raw[4:])
	return payload, crc, crc32.Checksum(payload, crcTable) == crc
}

// payloadIndex reads the frame index of a validated payload.
func payloadIndex(payload []byte) int {
	return int(binary.LittleEndian.Uint64(payload))
}

// decodePayload overwrites every field of f from a validated payload.
func decodePayload(f *fault.Frame, payload []byte) {
	le := binary.LittleEndian
	f.Index = payloadIndex(payload)
	f.Rec.Time = time.Unix(0, int64(le.Uint64(payload[8:]))).UTC()
	f.Rec.Temp = math.Float64frombits(le.Uint64(payload[16:]))
	f.Rec.Humidity = math.Float64frombits(le.Uint64(payload[24:]))
	f.Rec.Count = int(le.Uint32(payload[32:]))
	f.Rec.Walking = int(le.Uint32(payload[36:]))
	f.Nulled = int(le.Uint32(payload[40:]))
	flags := payload[44]
	f.Dropped = flags&flagDropped != 0
	f.EnvOK = flags&flagEnvOK != 0
	f.EnvStale = flags&flagEnvStale != 0
	f.AGCGlitch = flags&flagAGCGlitch != 0
	for k := range f.Rec.CSI {
		f.Rec.CSI[k] = math.Float64frombits(le.Uint64(payload[45+8*k:]))
	}
	f.Truth = f.Rec
}

// checkSegmentHeader validates the segment header at the start of raw,
// which must hold at least segHeaderLen bytes.
func checkSegmentHeader(raw []byte) error {
	le := binary.LittleEndian
	if got := le.Uint32(raw); got != segMagic {
		return fmt.Errorf("framelog: bad segment magic 0x%08X", got)
	}
	if got := le.Uint32(raw[4:]); got != segVersion {
		return fmt.Errorf("framelog: unsupported segment version %d", got)
	}
	return nil
}

// segmentHeader returns the encoded segment header.
func segmentHeader() []byte {
	le := binary.LittleEndian
	h := make([]byte, 0, segHeaderLen)
	h = le.AppendUint32(h, segMagic)
	h = le.AppendUint32(h, segVersion)
	return h
}
