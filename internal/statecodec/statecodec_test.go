package statecodec

import (
	"bytes"
	"math"
	"testing"
)

// state is one of every field kind, with values at the edges of each.
type state struct {
	i    int
	i64  int64
	f    float64
	b    bool
	s    string
	nan  float64
	zero string
}

func (s *state) fields() []any {
	return []any{&s.i, &s.i64, &s.f, &s.b, &s.s, &s.nan, &s.zero}
}

func sample() state {
	return state{i: -7, i64: math.MinInt64, f: math.Copysign(0, -1), b: true, s: "primary\x00é",
		nan: math.Float64frombits(0x7FF8_0000_0000_0001)}
}

// TestRoundTripReencodesIdentically: what Encode writes decodes to the same
// field values — float bits included — and re-encodes to the same bytes.
func TestRoundTripReencodesIdentically(t *testing.T) {
	in := sample()
	b := Encode(3, in.fields()...)
	var out state
	rest, err := Decode(b, 3, out.fields()...)
	if err != nil || len(rest) != 0 {
		t.Fatalf("decode: %v, %d bytes left", err, len(rest))
	}
	if out.i != in.i || out.i64 != in.i64 || out.b != in.b || out.s != in.s || out.zero != in.zero ||
		math.Float64bits(out.f) != math.Float64bits(in.f) || math.Float64bits(out.nan) != math.Float64bits(in.nan) {
		t.Fatalf("decoded %+v, want %+v", out, in)
	}
	if again := Encode(3, out.fields()...); !bytes.Equal(again, b) {
		t.Fatal("a decoded state does not re-encode to its bytes")
	}
}

// TestDecodeRejectsEveryTruncation: every strict prefix of an encoding fails,
// so a cut state is never mistaken for a shorter one.
func TestDecodeRejectsEveryTruncation(t *testing.T) {
	in := sample()
	b := Encode(1, in.fields()...)
	for cut := 0; cut < len(b); cut++ {
		var out state
		if _, err := Decode(b[:cut], 1, out.fields()...); err == nil {
			t.Fatalf("a %d-byte prefix of %d decoded", cut, len(b))
		}
	}
}

// TestDecodeReportsTrailingBytes: Decode hands back what follows the last
// field, exactly, so the caller that owns the whole state rejects extra bytes
// and a caller that stacks states reads the next one from there.
func TestDecodeReportsTrailingBytes(t *testing.T) {
	in := sample()
	b := Encode(1, in.fields()...)
	var out state
	rest, err := Decode(append(b, 0xAB, 0xCD), 1, out.fields()...)
	if err != nil || !bytes.Equal(rest, []byte{0xAB, 0xCD}) {
		t.Fatalf("trailing bytes: rest %x, err %v; want abcd, nil", rest, err)
	}
}

// TestDecodeRejectsForeignInput: another version tag, a bool word other than
// 0 or 1, and a string length past the end all fail.
func TestDecodeRejectsForeignInput(t *testing.T) {
	in := sample()
	b := Encode(1, in.fields()...)
	var out state
	if _, err := Decode(b, 2, out.fields()...); err == nil {
		t.Fatal("a version-1 state decoded as version 2")
	}
	bad := append([]byte(nil), b...)
	le.PutUint64(bad[8*4:], 2) // the bool
	if _, err := Decode(bad, 1, out.fields()...); err == nil {
		t.Fatal("a bool word of 2 decoded")
	}
	bad = append([]byte(nil), b...)
	le.PutUint64(bad[8*5:], uint64(len(b))) // the string's length
	if _, err := Decode(bad, 1, out.fields()...); err == nil {
		t.Fatal("a string longer than the input decoded")
	}
}
