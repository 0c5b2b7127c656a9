// Package statecodec encodes the state a feed carries from one frame to the
// next — the stream runtime's, the drift detector's, the serving layer's —
// for the per-feed snapshot (internal/framelog). The owner lists pointers to
// its fields once and hands that one list to Encode and Decode, so the two
// directions cannot drift apart. After a version word, each field is one
// little-endian word (an int, an int64, a float64's bits, a bool as 0 or 1)
// and a string its length word and bytes: a state that decodes re-encodes to
// the same bytes.
package statecodec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

var le = binary.LittleEndian

// Encode encodes version, then each field: an *int, *int64, *float64, *bool
// or *string.
func Encode(version uint64, fields ...any) []byte {
	b := le.AppendUint64(nil, version)
	for _, f := range fields {
		var w uint64
		switch p := f.(type) {
		case *int:
			w = uint64(*p)
		case *int64:
			w = uint64(*p)
		case *float64:
			w = math.Float64bits(*p)
		case *bool:
			if *p {
				w = 1
			}
		case *string:
			b = append(le.AppendUint64(b, uint64(len(*p))), *p...)
			continue
		default:
			panic(fmt.Sprintf("statecodec: unsupported field %T", f))
		}
		b = le.AppendUint64(b, w)
	}
	return b
}

// Decode fills the fields from b as Encode wrote them and returns the bytes
// after the last. Input Encode cannot have written — short, another version,
// a bool word other than 0 or 1 — fails with the fields read so far already
// overwritten, so a caller that must stay whole decodes into a copy.
func Decode(b []byte, version uint64, fields ...any) ([]byte, error) {
	word := func() (w uint64, ok bool) {
		if ok = len(b) >= 8; ok {
			w, b = le.Uint64(b), b[8:]
		}
		return w, ok
	}
	if v, ok := word(); !ok || v != version {
		return nil, fmt.Errorf("statecodec: state is not version %d", version)
	}
	for _, f := range fields {
		w, ok := word()
		switch p := f.(type) {
		case *int:
			*p = int(w)
		case *int64:
			*p = int64(w)
		case *float64:
			*p = math.Float64frombits(w)
		case *bool:
			*p, ok = w == 1, ok && w <= 1
		case *string:
			if ok = ok && w <= uint64(len(b)); ok {
				*p, b = string(b[:w]), b[w:]
			}
		}
		if !ok {
			return nil, errors.New("statecodec: state is short or out of range")
		}
	}
	return b, nil
}
