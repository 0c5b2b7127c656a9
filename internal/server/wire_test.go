package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fault"
	"repro/internal/infer"
	"repro/internal/stream"
)

// wireEvents are stream events over every field's corners: each mode, both
// imputed flags, with and without a version, P at 0, 1, tiny and -0.
func wireEvents() []Event {
	ver := infer.BlobID([]byte("wire"))
	t0 := time.Date(2022, 1, 5, 9, 0, 0, 987654321, time.UTC)
	return []Event{
		{Seq: 0, Time: t0, P: 0.7312894, Pred: 1, State: 1, Flipped: true, Mode: "primary", ModelVersion: ver},
		{Seq: 1, Time: t0.Add(50 * time.Millisecond), P: 1e-7, Mode: "fallback", EnvImputed: true},
		{Seq: 2, Time: t0.Add(time.Second), P: math.Copysign(0, -1), Mode: "held", CSIImputed: true, EnvImputed: true},
		{Seq: math.MaxInt64, Time: time.Date(9999, 12, 31, 23, 59, 59, 0, time.FixedZone("", -9*3600)), P: 1, Pred: -1, State: math.MinInt64, Mode: "primary", ModelVersion: ver},
		{Time: time.Time{}, P: 5e-324},
	}
}

func encodeJSONLine(t testing.TB, v any) []byte {
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestWireEncodersMatchJSON holds both encoders to encoding/json's bytes,
// and their refusals to json's errors.
func TestWireEncodersMatchJSON(t *testing.T) {
	batch := wireGoldenBatch()
	for _, frames := range [][]FrameJSON{batch, batch[2:3], {}, nil} {
		want, _ := json.Marshal(IngestRequest{Frames: frames})
		got, err := AppendIngestBody([]byte("prefix"), frames)
		if err != nil || string(got) != "prefix"+string(want) {
			t.Fatalf("ingest body:\n got %s (%v)\nwant prefix%s", got, err, want)
		}
	}
	events := wireEvents()
	events = append(events, Event{Mode: "<&>", ModelVersion: "é\u2028\x01\"\\"})
	for i := range events {
		want := encodeJSONLine(t, events[i])
		if got, err := appendEvent(nil, &events[i]); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("event %d:\n got %s (%v)\nwant %s", i, got, err, want)
		}
	}

	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		f := math.Float64frombits(rng.Uint64())
		if i%2 == 1 {
			f = float64(rng.Int63n(1<<20)) * math.Pow(10, float64(rng.Intn(60)-30))
		}
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		want, _ := json.Marshal(f)
		var e encoder
		if e.float(f); !bytes.Equal(e.b, want) {
			t.Fatalf("float %x: got %s, want %s", math.Float64bits(f), e.b, want)
		}
		checkNumber(t, string(e.b))
	}
	for _, tok := range hardNumbers {
		checkNumber(t, tok)
	}
	// Random decimals of 1–21 digits, with and without a fraction and an
	// exponent, around and across both ends of exactFloat's domain.
	for i := 0; i < 20000; i++ {
		digits := make([]byte, 1+rng.Intn(21))
		for k := range digits {
			digits[k] = byte('0' + rng.Intn(10))
		}
		digits[0] = byte('1' + rng.Intn(9))
		tok := string(digits)
		if p := rng.Intn(len(digits) + 1); p > 0 && p < len(digits) {
			tok = tok[:p] + "." + tok[p:]
		}
		if rng.Intn(2) == 0 {
			tok += "e" + strconv.Itoa(rng.Intn(60)-40)
		}
		checkNumber(t, tok)
	}

	// The edges of what time.Time.MarshalJSON takes, written byte for byte.
	for _, tm := range []time.Time{
		time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC),
		time.Date(2022, 1, 1, 0, 0, 0, 0, time.FixedZone("", 24*3600-1)),
		time.Date(2022, 1, 1, 0, 0, 0, 0, time.FixedZone("", -24*3600+1)),
	} {
		want, err := json.Marshal(tm)
		var e encoder
		if e.time(tm); err != nil || e.bad || !bytes.Equal(e.b, want) {
			t.Fatalf("time %v: got %s (refused %v), want %s (%v)", tm, e.b, e.bad, want, err)
		}
	}

	refused := []func(*FrameJSON, *Event){
		func(f *FrameJSON, e *Event) { f.CSI[3], e.P = math.NaN(), math.NaN() },
		func(f *FrameJSON, e *Event) { f.Temp, e.P = math.Inf(-1), math.Inf(1) },
		func(f *FrameJSON, e *Event) { f.Time = time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC); e.Time = f.Time },
		func(f *FrameJSON, e *Event) { f.Time = time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC); e.Time = f.Time },
		func(f *FrameJSON, e *Event) {
			f.Time = time.Date(2022, 1, 1, 0, 0, 0, 0, time.FixedZone("", -24*3600))
			e.Time = f.Time
		},
		func(f *FrameJSON, e *Event) {
			f.Time = time.Date(2022, 1, 1, 0, 0, 0, 0, time.FixedZone("", 24*3600))
			e.Time = f.Time
		},
	}
	for i, spoil := range refused {
		frames, ev := wireGoldenBatch(), wireEvents()[0]
		spoil(&frames[4], &ev)
		_, want := json.Marshal(IngestRequest{Frames: frames})
		if _, err := AppendIngestBody(nil, frames); err == nil || want == nil || err.Error() != want.Error() {
			t.Errorf("refusal %d: ingest body error %v, want %v", i, err, want)
		}
		want = json.NewEncoder(io.Discard).Encode(ev)
		if _, err := appendEvent(nil, &ev); err == nil || want == nil || err.Error() != want.Error() {
			t.Errorf("refusal %d: event error %v, want %v", i, err, want)
		}
	}
}

// hardNumbers are number tokens at the edges of exactFloat's rounding and
// domain: halfway cases on both paths, values just past a halfway point by
// less than the top 64 bits show (only the product's low word or the
// quotient's remainder rounds them up), 19- and 20-digit mantissas (2^64
// among them, which wraps a uint64 to 0), the 10^19 and 5^27 edges, signed
// zeros, both ends of the float64 range and the exponent forms the encoder
// writes.
var hardNumbers = []string{
	"9007199254740993", "9007199254740995", "-9007199254740993", "18014398509481986e1",
	"4503599627370496.5", "4503599627370497.5", "2251799813685248.25", "2251799813685248.75",
	"30818515303415498e14", "65860016164040569e5", "3022657169184369685e10",
	"9394520428632833008e-6", "3826481205193192e-9", "9476817343603971831e-25",
	"0.1", "0.3", "21.5", "-40.25", "0.30000000000000004", "0.7312894",
	"9999999999999999999", "1234567890123456789", "0.1234567890123456789", "-9.223372036854775807",
	"12345678901234567890", "99999999999999999999", "0.12345678901234567890", "10000000000000000000",
	"18446744073709551616", "1844674407370955161.6e1", "36893488147419103232",
	"1e19", "9999999999999999999e19", "1e20", "9007199254740993e19",
	"1e-27", "1e-28", "9999999999999999999e-27", "9999999999999999999e-28",
	"7450580596923828125", "7450580596923828125e-27", "0.000000000000000000000000001",
	"-0", "0", "0.0", "-0.0", "0e400", "-0e-400", "0.0000000000000000000000000000000000000001",
	"2.2250738585072011e-308", "2.2250738585072014e-308", "4.9e-324", "5e-324", "2e-324",
	"1.7976931348623157e308", "1.7976931348623159e308", "1e400", "1e-400", "1e99999999999999999999",
	"1e-7", "9.99e-7", "-2.5e-10", "1.2345678901234567e-7", "1e+21", "1.2345678901234567e+21",
	"1E5", "1e+5", "1.0", "01", "1.", ".5", "+1", "1e", "-", "", "0x1p3", "Inf", "1_0", " 1", "1 ",
}

// checkNumber holds the ingest scanner to strconv.ParseFloat on one token:
// it takes exactly the JSON numbers strconv takes, with strconv's bits.
func checkNumber(t *testing.T, tok string) {
	t.Helper()
	s := scanner{b: []byte(tok)}
	var got float64
	ok := s.float(&got) && s.i == len(s.b)
	want, err := strconv.ParseFloat(tok, 64)
	isJSON := tok != "" && (tok[0] == '-' || '0' <= tok[0] && tok[0] <= '9') &&
		'0' <= tok[len(tok)-1] && tok[len(tok)-1] <= '9' && json.Valid([]byte(tok))
	if wantOK := err == nil && isJSON; ok != wantOK || ok && math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%q: scanned %v (%#x, taken %v); strconv %v (%#x, taken %v)",
			tok, got, math.Float64bits(got), ok, want, math.Float64bits(want), wantOK)
	}
}

// FuzzNumber holds the ingest scanner's acceptance and bits to strconv's
// for one token. Byte mutations of a whole body almost never make a
// halfway decimal; mutations of one token near the table above do.
func FuzzNumber(f *testing.F) {
	for _, tok := range hardNumbers {
		f.Add(tok)
	}
	f.Fuzz(checkNumber)
}

// TestParsersTakeCanonicalOutput: what the encoders write never falls back
// to encoding/json, or the fuzzers below would compare json with itself.
func TestParsersTakeCanonicalOutput(t *testing.T) {
	body, _ := AppendIngestBody(nil, wireGoldenBatch())
	var frames []fault.Frame
	if ok := parseIngest(&frames, body); !ok || len(frames) != len(wireGoldenBatch()) {
		t.Fatalf("golden body not taken: %d frames, ok %v", len(frames), ok)
	}
	for i, ev := range wireEvents() {
		line, _ := appendEvent(nil, &ev)
		if _, ok := ParseEventLine(line, ""); !ok {
			t.Fatalf("event %d not taken: %s", i, line)
		}
	}
}

// refReadFrames is the ingest handler's decode step restated on
// encoding/json alone: json.Decoder, the trailing-bytes rule, toFrame.
func refReadFrames(body []byte) (int, string, []fault.Frame) {
	fail := func(code, msg string) (int, string, []fault.Frame) {
		raw, _ := json.Marshal(ErrorBody{Code: code, Message: msg})
		return http.StatusBadRequest, string(raw) + "\n", nil
	}
	var req IngestRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	err := dec.Decode(&req)
	if err == nil {
		if _, terr := dec.Token(); terr != io.EOF {
			err = errTrailingData
		}
	}
	if err != nil {
		return fail(CodeMalformedRequest, "malformed frame batch: "+err.Error())
	}
	if len(req.Frames) == 0 {
		return fail(CodeEmptyBatch, "empty frame batch")
	}
	frames := make([]fault.Frame, len(req.Frames))
	for i := range req.Frames {
		if frames[i], err = req.Frames[i].toFrame(); err != nil {
			return fail(CodeBadFrame, fmt.Sprintf("frame %d: %v", i, err))
		}
	}
	return http.StatusOK, "", frames
}

// sameFrames compares frames field by field, floats by their bits and
// times by instant and zone.
func sameFrames(a, b []fault.Frame) bool {
	if len(a) != len(b) || framesHash(a) != framesHash(b) {
		return false
	}
	for i := range a {
		if a[i].Rec.Time.Location().String() != b[i].Rec.Time.Location().String() ||
			a[i].Truth.Time.Location().String() != b[i].Truth.Time.Location().String() {
			return false
		}
	}
	return true
}

// wireSeedBodies are FuzzIngestBody's seeds: canonical output and each way
// out of the canonical subset.
func wireSeedBodies() []string {
	canon, _ := AppendIngestBody(nil, wireGoldenBatch())
	one, _ := AppendIngestBody(nil, wireGoldenBatch()[:1])
	c := string(one)
	amps := func(n int) string {
		return `{"frames":[{"time":"2022-01-05T09:00:00Z","csi":[` + strings.TrimSuffix(strings.Repeat("1.5,", n), ",") + `],"temp":20,"humidity":40}]}`
	}
	seeds := []string{
		string(canon), c,
		strings.Replace(c, `"frames"`, `"fr\u0061mes"`, 1),
		strings.Replace(c, `"temp"`, `"t\u0065mp"`, 1),
		strings.Replace(c, `"temp"`, `"unknown":[1,{"a":null}],"temp"`, 1),
		strings.Replace(c, `"temp":21.5`, `"temp":1,"temp":21.5`, 1),
		strings.Replace(c, `"csi"`, `"CSI"`, 1),
		strings.Replace(c, `"frames"`, `"Frames"`, 1),
		strings.Replace(c, `"temp":21.5`, `"temp":null`, 1),
		strings.Replace(c, `"time":"`, `"time":null,"x":"`, 1),
		`null`, `{"frames":null}`, `{"frames":[]}`, `{}`, `[]`, `{"frames":[null]}`,
		strings.Replace(c, `"temp":21.5`, `"temp":1e400`, 1),
		strings.Replace(c, `"temp":21.5`, `"temp":-0`, 1),
		strings.Replace(c, `"temp":21.5`, `"temp":1E5`, 1),
		strings.Replace(c, `"temp":21.5`, `"temp":01`, 1),
		strings.Replace(c, `"temp":21.5`, `"temp":1.0`, 1),
		strings.Replace(c, `"temp":21.5`, `"temp":"21.5"`, 1),
		strings.Replace(c, `"humidity":40.25}`, `"humidity":40.25,"env_ok":null,"dropped":false}`, 1),
		amps(63), amps(64), amps(65),
		c[:len(c)/2], c[:len(c)-1],
		c + c, c + "garbage", c + " \n\t", " \r\n" + c, c + "]", c + "{",
		strings.ReplaceAll(c, ",", " , "),
		strings.Replace(c, `09:00:00.123456789Z`, `09:00:00.123456789+01:00`, 1),
		strings.Replace(c, `09:00:00.123456789Z`, `9:00:00Z`, 1),
		strings.Replace(c, `"time":"2022`, `"time":"\u0032022`, 1),
		strings.Replace(c, `"time":"2022-01-05`, `"time":"2022-01-05é`, 1),
	}
	for _, tok := range hardNumbers {
		seeds = append(seeds, strings.Replace(c, `"temp":21.5`, `"temp":`+tok, 1))
	}
	return seeds
}

// FuzzIngestBody holds the ingest handler's decode step — status, error
// envelope, and every bit of every accepted frame — to refReadFrames, for
// any body.
func FuzzIngestBody(f *testing.F) {
	for _, s := range wireSeedBodies() {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		wantCode, wantBody, wantFrames := refReadFrames(body)
		rec := httptest.NewRecorder()
		frames, ok := readFrames(rec, httptest.NewRequest(http.MethodPost, "/v1/feeds/f/frames", bytes.NewReader(body)))
		if !ok {
			if wantCode == http.StatusOK || rec.Code != wantCode || rec.Body.String() != wantBody {
				t.Fatalf("refused %d %s; json path answers %d %s", rec.Code, rec.Body, wantCode, wantBody)
			}
			return
		}
		defer putFrames(frames)
		if wantCode != http.StatusOK {
			t.Fatalf("accepted %d frames; json path answers %d %s", len(*frames), wantCode, wantBody)
		}
		if !sameFrames(*frames, wantFrames) {
			t.Fatalf("decoded frames differ from the json path's")
		}
	})
}

// sameEvent compares events field by field, P by its bits and the time by
// instant and zone.
func sameEvent(a, b Event) bool {
	_, ao := a.Time.Zone()
	_, bo := b.Time.Zone()
	return a.Seq == b.Seq && a.Time.Equal(b.Time) && ao == bo && a.Time.Location().String() == b.Time.Location().String() &&
		math.Float64bits(a.P) == math.Float64bits(b.P) && a.Pred == b.Pred && a.State == b.State &&
		a.Flipped == b.Flipped && a.Mode == b.Mode && a.CSIImputed == b.CSIImputed &&
		a.EnvImputed == b.EnvImputed && a.ModelVersion == b.ModelVersion
}

// FuzzDecisionLine: whenever ParseEventLine takes a line, json.Unmarshal
// takes it too and decodes the same Event.
func FuzzDecisionLine(f *testing.F) {
	for _, ev := range wireEvents() {
		line, _ := appendEvent(nil, &ev)
		f.Add(line)
	}
	line, _ := appendEvent(nil, &wireEvents()[0])
	c := string(line)
	for _, s := range []string{
		strings.Replace(c, `"seq"`, `"s\u0065q"`, 1),
		strings.Replace(c, `"seq"`, `"extra":{"x":[1,2]},"seq"`, 1),
		strings.Replace(c, `"pred":1`, `"pred":0,"pred":1`, 1),
		strings.Replace(c, `"mode"`, `"Mode"`, 1),
		strings.Replace(c, `"mode":"primary"`, `"mode":"prim\u0061ry"`, 1),
		strings.Replace(c, `"pred":1`, `"pred":null`, 1),
		`null` + "\n", `{}` + "\n", "\n",
		strings.Replace(c, `"p":0.7312894`, `"p":1e400`, 1),
		strings.Replace(c, `"p":0.7312894`, `"p":-0`, 1),
		strings.Replace(c, `"pred":1`, `"pred":1E5`, 1),
		strings.Replace(c, `"pred":1`, `"pred":01`, 1),
		strings.Replace(c, `"pred":1`, `"pred":1.0`, 1),
		strings.Replace(c, `"pred":1`, `"pred":-0`, 1),
		strings.Replace(c, `"seq":0`, `"seq":9223372036854775808`, 1),
		strings.Replace(c, `"flipped":true`, `"flipped":1`, 1),
		c[:len(c)/2], c[:len(c)-2], c + c, c + "x", strings.TrimSuffix(c, "\n") + " x\n",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		got, ok := ParseEventLine(line, "primary")
		if !ok {
			return
		}
		var want Event
		if err := json.Unmarshal(line, &want); err != nil {
			t.Fatalf("taken, but json refuses it: %v", err)
		}
		if !sameEvent(got, want) {
			t.Fatalf("decoded %+v, json decodes %+v", got, want)
		}
	})
}

// TestStreamLineEncodeNoAlloc: a subscriber's line buffer is reused, so
// encoding an event allocates nothing.
func TestStreamLineEncodeNoAlloc(t *testing.T) {
	ev := wireEvents()[0]
	var line []byte
	if n := testing.AllocsPerRun(200, func() { line, _ = appendEvent(line[:0], &ev) }); n != 0 {
		t.Fatalf("encoding a stream line allocates %v times", n)
	}
}

// raceEnabled is set under -race, where sync.Pool drops items at random
// and a pooled path's allocation count means nothing.
var raceEnabled bool

// TestIngestDecodeAllocsPerRequest: decoding a canonical 256-frame body
// allocates no more than decoding a one-frame body — per request, not per
// frame. The parser allocates one amplitude scratch a body; the handler's
// decode step adds a constant, its buffers coming from pools.
func TestIngestDecodeAllocsPerRequest(t *testing.T) {
	allocs := func(n int) (parse, handler float64) {
		batch := make([]FrameJSON, n)
		for i := range batch {
			batch[i] = wireGoldenBatch()[0]
			batch[i].Time = batch[i].Time.Add(time.Duration(i) * time.Millisecond)
		}
		body, _ := AppendIngestBody(nil, batch)
		dst := make([]fault.Frame, 0, n)
		parse = testing.AllocsPerRun(20, func() {
			if !parseIngest(&dst, body) || len(dst) != n {
				t.Fatalf("canonical %d-frame body not taken", n)
			}
		})
		rd := bytes.NewReader(body)
		req := httptest.NewRequest(http.MethodPost, "/v1/feeds/f/frames", rd)
		rec := httptest.NewRecorder()
		handler = testing.AllocsPerRun(50, func() {
			rd.Reset(body)
			frames, ok := readFrames(rec, req)
			if !ok || len(*frames) != n {
				t.Fatalf("canonical %d-frame body refused: %s", n, rec.Body)
			}
			putFrames(frames)
		})
		return parse, handler
	}
	parseOne, one := allocs(1)
	parseMany, many := allocs(256)
	if parseMany != parseOne || parseMany > 1 {
		t.Fatalf("parsing allocates %v times for 1 frame and %v for 256", parseOne, parseMany)
	}
	if !raceEnabled && (many > one || many > 4) {
		t.Fatalf("decoding allocates %v times for 1 frame and %v for 256", one, many)
	}
}

// TestClaimedLengthIsNotAllocated: Content-Length sizes the ingest buffer
// only up to what the pool keeps. A client claiming 8 MiB, or more than fits
// an int, and sending one frame costs at most one pooled-size buffer, not
// the claim. Under -race the pool drops buffers at random, so a request may
// pay for a fresh pooled-size buffer and more; what still holds there is
// that it never pays for the claim.
func TestClaimedLengthIsNotAllocated(t *testing.T) {
	body, _ := AppendIngestBody(nil, wireGoldenBatch()[:1])
	for _, claim := range []int64{maxIngestBody, math.MaxInt64} {
		const calls = 8
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			req := httptest.NewRequest(http.MethodPost, "/v1/feeds/f/frames", bytes.NewReader(body))
			req.ContentLength = claim
			frames, ok := readFrames(httptest.NewRecorder(), req)
			if !ok || len(*frames) != 1 {
				t.Fatalf("claim %d: one-frame body refused", claim)
			}
			putFrames(frames)
		}
		runtime.ReadMemStats(&after)
		per := (after.TotalAlloc - before.TotalAlloc) / calls
		if !raceEnabled && per > maxPooledBody+64<<10 || per >= maxIngestBody {
			t.Fatalf("claim %d: %d bytes allocated per one-frame request", claim, per)
		}
	}
}

// TestDecodeBodyOverLimit: bytes after the value are errTrailingData, unless
// they take the body past its limit, which is then the error.
func TestDecodeBodyOverLimit(t *testing.T) {
	for _, c := range []struct {
		body    string
		tooBig  bool
		trailer bool
	}{
		{`{"id":"a"}` + " \n", false, false},
		{`{"id":"a"} x`, false, true},
		{`{"id":"a"} x` + strings.Repeat(" ", 64), true, false},
		{`{"id":"a"}` + strings.Repeat(" ", 64), true, false},
	} {
		var v ModelPinRequest
		err := decodeBody(http.MaxBytesReader(httptest.NewRecorder(), io.NopCloser(strings.NewReader(c.body)), 32), &v)
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) != c.tooBig || (err == errTrailingData) != c.trailer || (err == nil) != (!c.tooBig && !c.trailer) {
			t.Errorf("%q: %v", c.body, err)
		}
	}
}

// TestGeneratedDayTakesExactPath: every number a generated day puts on the
// wire is in exactFloat's domain, so served traffic never falls back to
// strconv. That covers each frame's 64 amplitudes, temp and humidity, and
// the p of each decision a trained C+E detector, served at f32 as the bulk
// benchmark serves it, streams for the day.
func TestGeneratedDayTakesExactPath(t *testing.T) {
	day := func(rate float64, seed int64) []dataset.Record {
		gen := dataset.DefaultGenConfig(rate, seed)
		gen.Duration = 24 * time.Hour
		ds, err := dataset.Generate(gen)
		if err != nil {
			t.Fatal(err)
		}
		return ds.Records
	}
	dcfg := core.DefaultDetectorConfig()
	dcfg.Train.Epochs = 2
	det, err := core.TrainDetector(&dataset.Dataset{Records: day(0.1, 11)}, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewDetectorEngine(det, core.ServeConfig{Precision: "f32"})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := stream.New(stream.Config{Primary: eng, PrimaryUsesEnv: true})
	if err != nil {
		t.Fatal(err)
	}
	numbers, fallbacks := 0, 0
	exact := func(v float64) {
		var enc encoder
		enc.float(v)
		s := scanner{b: enc.b}
		_, m, e, nd := s.number()
		if _, ok := exactFloat(m, e, nd); !ok {
			if fallbacks++; fallbacks <= 5 {
				t.Errorf("%s falls back to strconv", enc.b)
			}
		}
		numbers++
	}
	for k, r := range day(0.2, 1) {
		for _, a := range r.CSI {
			exact(a)
		}
		exact(r.Temp)
		exact(r.Humidity)
		exact(rt.Process(fault.Frame{Rec: r, Truth: r, Index: k, EnvOK: true}).P)
	}
	if fallbacks > 0 {
		t.Fatalf("%d of %d numbers fall back to strconv", fallbacks, numbers)
	}
}

// BenchmarkParseIngest prices the ingest parser on a 256-frame body of
// generated frames, the bulk batch size: ns/frame and ns/number, with 66
// numbers a frame.
func BenchmarkParseIngest(b *testing.B) {
	gen := dataset.DefaultGenConfig(2, 17)
	gen.Duration = 3 * time.Minute
	ds, err := dataset.Generate(gen)
	if err != nil {
		b.Fatal(err)
	}
	batch := make([]FrameJSON, 256)
	for i := range batch {
		r := &ds.Records[i]
		batch[i] = FrameJSON{Time: r.Time, CSI: r.CSI[:], Temp: r.Temp, Humidity: r.Humidity}
	}
	body, _ := AppendIngestBody(nil, batch)
	dst := make([]fault.Frame, 0, len(batch))
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !parseIngest(&dst, body) {
			b.Fatal("canonical body refused")
		}
	}
	perFrame := float64(b.Elapsed().Nanoseconds()) / float64(b.N*len(batch))
	b.ReportMetric(perFrame, "ns/frame")
	b.ReportMetric(perFrame/66, "ns/number")
}
