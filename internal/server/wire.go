package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/bits"
	"strconv"
	"sync"
	"time"
	"unsafe"

	"repro/internal/csi"
	"repro/internal/fault"
	"repro/internal/stream"
)

// The hot wire paths, the ingest body and the NDJSON decision stream, are
// coded here without reflection. The encoders write encoding/json's exact
// bytes and leave what json refuses (NaN, ±Inf, years outside 0–9999) to
// json.Marshal, so the error is json's too. The parsers take only what the
// encoders write and answer "not mine" to anything else, upon which the
// caller runs encoding/json on the same bytes: acceptance, every error and
// every decoded bit are json's by construction. FuzzIngestBody and
// FuzzDecisionLine check it.

// encoder appends JSON; bad records a value json.Marshal refuses.
type encoder struct {
	b   []byte
	bad bool
}

func (e *encoder) raw(s string) { e.b = append(e.b, s...) }

// time writes the quoted RFC 3339 text time.Time.MarshalJSON writes, which
// refuses a year outside 0–9999 and a zone offset of 24 hours or more.
func (e *encoder) time(t time.Time) {
	_, off := t.Zone()
	e.bad = e.bad || t.Year() < 0 || t.Year() > 9999 || off <= -24*3600 || off >= 24*3600
	e.b = append(t.AppendFormat(append(e.b, '"'), time.RFC3339Nano), '"')
}

// float is encoding/json's float64 encoder: shortest 'f' digits, 'e' below
// 1e-6 and from 1e21 on, with the exponent's leading zero dropped.
func (e *encoder) float(f float64) {
	e.bad = e.bad || math.IsInf(f, 0) || math.IsNaN(f)
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(e.b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	e.b = b
}

// str quotes s as json.Marshal does, HTML escaping included.
func (e *encoder) str(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; !plainByte(c) || c == '<' || c == '>' || c == '&' {
			raw, _ := json.Marshal(s) // a string always marshals
			e.b = append(e.b, raw...)
			return
		}
	}
	e.b = append(append(append(e.b, '"'), s...), '"')
}

// plainByte reports a byte JSON never escapes: printable ASCII but " and \.
func plainByte(c byte) bool { return c >= 0x20 && c < 0x80 && c != '"' && c != '\\' }

// AppendIngestBody appends json.Marshal(IngestRequest{Frames: frames}).
func AppendIngestBody(b []byte, frames []FrameJSON) ([]byte, error) {
	e := encoder{b: append(b, `{"frames":`...)}
	if frames == nil {
		return append(e.b, "null}"...), nil
	}
	e.raw("[")
	for i, fj := range frames {
		if i > 0 {
			e.raw(",")
		}
		e.raw(`{"time":`)
		e.time(fj.Time)
		e.raw(`,"csi":`)
		if fj.CSI == nil {
			e.raw("null")
		} else {
			e.raw("[")
			for k, v := range fj.CSI {
				if k > 0 {
					e.raw(",")
				}
				e.float(v)
			}
			e.raw("]")
		}
		e.raw(`,"temp":`)
		e.float(fj.Temp)
		e.raw(`,"humidity":`)
		e.float(fj.Humidity)
		if fj.EnvOK != nil {
			e.raw(`,"env_ok":`)
			e.b = strconv.AppendBool(e.b, *fj.EnvOK)
		}
		if fj.Dropped {
			e.raw(`,"dropped":true`)
		}
		e.raw("}")
	}
	if e.bad {
		_, err := json.Marshal(IngestRequest{Frames: frames})
		return nil, err
	}
	return append(e.b, "]}"...), nil
}

// appendEvent appends json.Encoder.Encode(ev)'s bytes, newline included.
func appendEvent(b []byte, ev *Event) ([]byte, error) {
	e := encoder{b: append(b, `{"seq":`...)}
	e.b = strconv.AppendInt(e.b, ev.Seq, 10)
	e.raw(`,"time":`)
	e.time(ev.Time)
	e.raw(`,"p":`)
	e.float(ev.P)
	e.raw(`,"pred":`)
	e.b = strconv.AppendInt(e.b, int64(ev.Pred), 10)
	e.raw(`,"state":`)
	e.b = strconv.AppendInt(e.b, int64(ev.State), 10)
	e.raw(`,"flipped":`)
	e.b = strconv.AppendBool(e.b, ev.Flipped)
	e.raw(`,"mode":`)
	e.str(ev.Mode)
	if ev.CSIImputed {
		e.raw(`,"csi_imputed":true`)
	}
	if ev.EnvImputed {
		e.raw(`,"env_imputed":true`)
	}
	if ev.ModelVersion != "" {
		e.raw(`,"model_version":`)
		e.str(ev.ModelVersion)
	}
	if e.bad {
		_, err := json.Marshal(ev)
		return nil, err
	}
	return append(e.b, "}\n"...), nil
}

// scanner matches the encoders' own layout: their keys in their order,
// optional ones present or absent as they write them, no whitespace. Every
// method reports false on anything else.
type scanner struct {
	b []byte
	i int
}

func (s *scanner) lit(lit string) bool {
	if len(s.b)-s.i < len(lit) || string(s.b[s.i:s.i+len(lit)]) != lit {
		return false
	}
	s.i += len(lit)
	return true
}

// str returns a string token's contents when they are plain bytes.
func (s *scanner) str() ([]byte, bool) {
	if !s.lit(`"`) {
		return nil, false
	}
	start := s.i
	for s.i < len(s.b) && plainByte(s.b[s.i]) {
		s.i++
	}
	q := s.b[start:s.i]
	return q, s.lit(`"`)
}

// intern sets *v to a string token's contents: one of known, or a copy.
func (s *scanner) intern(v *string, known ...string) bool {
	q, ok := s.str()
	for _, k := range known {
		if string(q) == k {
			*v = k
			return ok
		}
	}
	*v = string(q)
	return ok
}

// time parses as time.Time.UnmarshalJSON does once the quotes are off.
func (s *scanner) time(t *time.Time) bool {
	q, ok := s.str()
	return ok && t.UnmarshalText(q) == nil
}

// number returns the JSON number token ahead, "" when there is none. It
// aliases the input; strconv keeps no reference to it. In the same pass it
// reads the token's magnitude as m·10^e with nd significant digits; m is
// exact only while nd ≤ 19.
func (s *scanner) number() (tok string, m uint64, e, nd int) {
	b, i := s.b, s.i
	digits := func() int {
		j := i
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			if m != 0 || b[i] != '0' {
				nd++
			}
			m = m*10 + uint64(b[i]-'0')
		}
		return i - j
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	if n := digits(); n == 0 || n > 1 && b[i-n] == '0' {
		return "", 0, 0, 0
	}
	if i < len(b) && b[i] == '.' {
		i++
		if e = -digits(); e == 0 {
			return "", 0, 0, 0
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		neg := i < len(b) && b[i] == '-'
		if i < len(b) && (b[i] == '+' || neg) {
			i++
		}
		j, x := i, 0
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			x = min(x*10+int(b[i]-'0'), 1<<20) // far outside exactFloat's domain
		}
		if i == j {
			return "", 0, 0, 0
		}
		if neg {
			x = -x
		}
		e += x
	}
	tok = unsafe.String(&b[s.i], i-s.i)
	s.i = i
	return tok, m, e, nd
}

// pow5[k] is 5^k; 5^27 is the last power below 2^64.
var pow5 = func() (p [28]uint64) {
	p[0] = 1
	for k := 1; k < len(p); k++ {
		p[k] = 5 * p[k-1]
	}
	return p
}()

// exactFloat returns the float64 nearest m·10^e, ties to even, as
// strconv.ParseFloat does, for nd ≤ 19 significant digits in m and
// -27 ≤ e ≤ 19; false outside that domain. The value is an exact 128-bit
// product m·10^e, or an exact quotient m·2^k/5^-e (times 2^(e-k)) with its
// remainder as the sticky bit; either is rounded once to 53 bits. Every
// result is normal, since 10^-27 ≤ m·10^e < 10^38.
func exactFloat(m uint64, e, nd int) (float64, bool) {
	var hi, lo uint64
	exp, sticky := 0, false
	switch {
	case nd > 19:
		return 0, false
	case m == 0:
		return 0, true
	case 0 <= e && e < 20:
		hi, lo = bits.Mul64(m, pow5[e]<<e) // 10^e = 5^e·2^e
	case -len(pow5) < e && e < 0:
		// Shift m so the quotient has 63 or 64 bits and cannot overflow.
		p := pow5[-e]
		n, z := bits.Len64(p)-1, bits.LeadingZeros64(m)
		m <<= z
		var r uint64
		lo, r = bits.Div64(m>>(64-n), m<<n, p)
		exp, sticky = e-n-z, r != 0
	default:
		return 0, false
	}
	// w·2^exp is hi:lo·2^exp with w's top bit set; bits shifted out are sticky.
	z := bits.LeadingZeros64(hi)
	w, exp := hi<<z|lo>>(64-z), exp+64-z
	sticky = sticky || lo<<z != 0
	z = bits.LeadingZeros64(w)
	w, exp = w<<z, exp-z
	mant := w >> 11
	if r := w & (1<<11 - 1); r > 1<<10 || r == 1<<10 && (sticky || mant&1 == 1) {
		mant++
	}
	if exp += 11; mant == 1<<53 {
		mant, exp = mant>>1, exp+1
	}
	return math.Float64frombits(uint64(exp+52+1023)<<52 | mant&(1<<52-1)), true
}

// float parses a JSON number as strconv.ParseFloat does: exactFloat when
// the token is in its domain, strconv on the token otherwise.
func (s *scanner) float(v *float64) bool {
	tok, m, e, nd := s.number()
	if f, ok := exactFloat(m, e, nd); ok && tok != "" {
		if tok[0] == '-' {
			f = -f
		}
		*v = f
		return true
	}
	f, err := strconv.ParseFloat(tok, 64)
	*v = f
	return err == nil
}

// scanInt parses an integer field as encoding/json does: a JSON number
// strconv.ParseInt takes whole at the field's size.
func scanInt[T int | int64](s *scanner, v *T) bool {
	tok, _, _, _ := s.number()
	n, err := strconv.ParseInt(tok, 10, 8*int(unsafe.Sizeof(*v)))
	*v = T(n)
	return err == nil
}

func (s *scanner) bool(v *bool) bool {
	*v = s.lit("true")
	return *v || s.lit("false")
}

// amps parses null (nil), or an array of at most len(buf) numbers into buf.
func (s *scanner) amps(buf []float64) ([]float64, bool) {
	if s.lit("null") {
		return nil, true
	}
	if !s.lit("[") {
		return nil, false
	}
	v := buf[:0]
	for !s.lit("]") {
		// More than len(buf) amplitudes: toFrame refuses them anyway.
		if len(v) == len(buf) || len(v) > 0 && !s.lit(",") {
			return nil, false
		}
		v = append(v, 0)
		if !s.float(&v[len(v)-1]) {
			return nil, false
		}
	}
	return v, true
}

var modeNames = []string{stream.ModePrimary.String(), stream.ModeFallback.String(), stream.ModeHeld.String()}
var envOK = [2]bool{false, true}

// parseIngest sets *dst, through toFrame, to the frames of a body
// AppendIngestBody could have written. False for any other body, or one
// holding a frame toFrame refuses: the caller then runs encoding/json.
func parseIngest(dst *[]fault.Frame, body []byte) bool {
	*dst = (*dst)[:0]
	s := scanner{b: body}
	var buf [csi.NumSubcarriers]float64
	if !s.lit(`{"frames":[`) {
		return false
	}
	for {
		var fj FrameJSON
		ok := s.lit(`{"time":`) && s.time(&fj.Time) && s.lit(`,"csi":`)
		if ok {
			fj.CSI, ok = s.amps(buf[:])
		}
		if !ok || !(s.lit(`,"temp":`) && s.float(&fj.Temp) && s.lit(`,"humidity":`) && s.float(&fj.Humidity)) {
			return false
		}
		if s.lit(`,"env_ok":true`) {
			fj.EnvOK = &envOK[1]
		} else if s.lit(`,"env_ok":false`) {
			fj.EnvOK = &envOK[0]
		}
		fj.Dropped = s.lit(`,"dropped":true`)
		f, err := fj.toFrame()
		if !s.lit("}") || err != nil {
			return false
		}
		*dst = append(*dst, f)
		if !s.lit(",") {
			return s.lit("]}") && s.i == len(s.b)
		}
	}
}

// ParseEventLine parses a line appendEvent could have written, newline
// included; false for any other: decode that with encoding/json. Mode is
// interned and an equal ModelVersion is prevVersion, so kept decisions share them.
func ParseEventLine(line []byte, prevVersion string) (Event, bool) {
	s := scanner{b: line}
	var ev Event
	ok := s.lit(`{"seq":`) && scanInt(&s, &ev.Seq) && s.lit(`,"time":`) && s.time(&ev.Time) &&
		s.lit(`,"p":`) && s.float(&ev.P) && s.lit(`,"pred":`) && scanInt(&s, &ev.Pred) &&
		s.lit(`,"state":`) && scanInt(&s, &ev.State) && s.lit(`,"flipped":`) && s.bool(&ev.Flipped) &&
		s.lit(`,"mode":`) && s.intern(&ev.Mode, modeNames...)
	ev.CSIImputed = ok && s.lit(`,"csi_imputed":true`)
	ev.EnvImputed = ok && s.lit(`,"env_imputed":true`)
	if ok && s.lit(`,"model_version":`) {
		ok = s.intern(&ev.ModelVersion, prevVersion)
	}
	return ev, ok && s.lit("}\n") && s.i == len(s.b)
}

// The ingest handler's pools. A body buffer is sized from Content-Length;
// one past maxPooledBody (a 256-frame batch is ~360 KB) is dropped rather
// than kept, as is a frame slice past maxPooledFrames.
const maxPooledBody, maxPooledFrames = 1 << 20, 1024

var (
	bodyPool  = sync.Pool{New: func() any { return new(bytes.Buffer) }}
	framePool = sync.Pool{New: func() any { return new([]fault.Frame) }}
)

func putBody(b *bytes.Buffer) {
	if b.Cap() <= maxPooledBody {
		bodyPool.Put(b)
	}
}

func putFrames(p *[]fault.Frame) {
	if cap(*p) <= maxPooledFrames {
		framePool.Put(p)
	}
}
