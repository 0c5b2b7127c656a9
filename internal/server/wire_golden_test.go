package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/fault"
	"repro/internal/infer"
)

// The wire goldens pin bytes on the HTTP surface, where the decision goldens
// pin what is computed behind it: the ingest body the client sends, the
// frames the server decodes from it, and the NDJSON stream it answers with.
// A change to any constant is a change to the wire format.
const (
	// wireBodyGolden is FNV-1a of json.Marshal(IngestRequest{wireGoldenBatch()}),
	// the body occupancy.Client.Ingest sends for that batch.
	wireBodyGolden = uint64(0xcd9872b0691854bd)
	// wireFramesGolden is FNV-1a of every field of the frames readFrames
	// decodes from that body.
	wireFramesGolden = uint64(0xcfba3446d5c06fa5)
	// wireStreamGolden is FNV-1a of the bytes GET /v1/feeds/{id}/stream?all=1
	// answers for degradingFrames on a registry-backed f64 feed.
	wireStreamGolden = uint64(0x6718f5194f8ff13e)
)

// wireGoldenBatch is a frame batch with every encoding corner a frame can
// reach: an explicit env_ok false and true, a dropped frame without CSI,
// subnormal, huge, tiny and negative-zero amplitudes, and times in UTC, at a
// fixed offset and with trailing zero nanoseconds.
func wireGoldenBatch() []FrameJSON {
	no, yes := false, true
	t0 := time.Date(2022, 1, 5, 9, 0, 0, 123456789, time.UTC)
	out := make([]FrameJSON, 5)
	for i := range out {
		fj := &out[i]
		fj.Time = t0.Add(time.Duration(i) * 50 * time.Millisecond)
		fj.CSI = make([]float64, 64)
		for k := range fj.CSI {
			fj.CSI[k] = math.Sin(float64(i*64+k)) * float64(1+k%7)
		}
		fj.Temp, fj.Humidity = 21.5+float64(i)/3, 40.25-float64(i)/7
	}
	out[1].EnvOK, out[1].Temp, out[1].Humidity = &no, 0, 0
	out[2].Dropped, out[2].CSI = true, nil
	out[3].EnvOK = &yes
	out[3].Time = time.Date(2022, 1, 5, 14, 30, 0, 120000000, time.FixedZone("IST", 5*3600+1800))
	edge := []float64{
		math.SmallestNonzeroFloat64, 2.2250738585072014e-308, 1e21, 9.999999999999999e20, 1e20,
		math.Copysign(0, -1), 0, 1e-6, 9.99e-7, 1e-7, -1.5e-300, math.MaxFloat64, -math.MaxFloat64,
		123456789.125, 0.1, -2.5e-10, 1e100, 5e-5,
	}
	copy(out[4].CSI, edge)
	out[4].Temp, out[4].Humidity = math.Copysign(0, -1), 1e-9
	return out
}

// fnvWords folds 64-bit words into an FNV-1a hash.
type fnvWords struct{ h hash.Hash64 }

func (w fnvWords) word(v uint64) { w.h.Write(binary.LittleEndian.AppendUint64(nil, v)) }

func (w fnvWords) record(r *dataset.Record) {
	_, off := r.Time.Zone()
	w.word(uint64(r.Time.UnixNano()))
	w.word(uint64(off))
	for _, v := range r.CSI {
		w.word(math.Float64bits(v))
	}
	w.word(math.Float64bits(r.Temp))
	w.word(math.Float64bits(r.Humidity))
	w.word(uint64(r.Count))
	w.word(uint64(r.Walking))
}

// framesHash hashes every field of the frames, floats by their bits.
func framesHash(frames []fault.Frame) uint64 {
	h := fnv.New64a()
	w := fnvWords{h}
	b := func(v bool) uint64 {
		if v {
			return 1
		}
		return 0
	}
	for i := range frames {
		f := &frames[i]
		w.word(uint64(f.Index))
		w.word(b(f.Dropped)<<3 | b(f.EnvOK)<<2 | b(f.EnvStale)<<1 | b(f.AGCGlitch))
		w.word(uint64(f.Nulled))
		w.record(&f.Rec)
		w.record(&f.Truth)
	}
	return h.Sum64()
}

func fnv64(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// TestIngestWireGolden pins the ingest body for the golden batch and the
// frames the handler's decoder reads from it.
func TestIngestWireGolden(t *testing.T) {
	body, err := json.Marshal(IngestRequest{Frames: wireGoldenBatch()})
	if err != nil {
		t.Fatal(err)
	}
	if got := fnv64(body); got != wireBodyGolden {
		t.Errorf("ingest body hash %#016x, want %#016x:\n%s", got, wireBodyGolden, body)
	}
	rec := httptest.NewRecorder()
	frames, ok := readFrames(rec, httptest.NewRequest(http.MethodPost, "/v1/feeds/g/frames", bytes.NewReader(body)))
	if !ok {
		t.Fatalf("golden body refused: %d %s", rec.Code, rec.Body)
	}
	if got := framesHash(*frames); got != wireFramesGolden {
		t.Errorf("decoded-frames hash %#016x, want %#016x", got, wireFramesGolden)
	}
}

// TestStreamWireGolden pins the NDJSON bytes of an all-decisions stream over
// the degrading corpus: every mode, both imputed flags and the version tag.
// f64 scores are exact under both kernels, so one constant serves both.
func TestStreamWireGolden(t *testing.T) {
	primary := randomEngine(t, dataset.FeatCSIEnv, "f64", 1)
	reg := infer.NewRegistry(nil)
	v, _, err := reg.Install([]byte("golden primary"), func([]byte) (any, error) { return primary, nil })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Activate(v.ID()); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Primary: primary, Fallback: randomEngine(t, dataset.FeatCSI, "f64", 2), PrimaryUsesEnv: true,
		MaxHoldGap: 2, WatchdogFrames: 5, SmootherNeed: 2,
		StreamBuffer: 64, Models: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	f, _, err := s.register("golden", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/feeds/golden/stream?all=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	frames := degradingFrames()
	if res, err := f.ingest(context.Background(), frames); err != nil || res.accepted != len(frames) {
		t.Fatalf("ingest accepted %d of %d: %v", res.accepted, len(frames), err)
	}
	f.close(time.Time{})
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(raw, []byte("\n")); n != len(frames) {
		t.Fatalf("stream carried %d lines, want %d", n, len(frames))
	}
	for _, want := range []string{`"mode":"primary"`, `"mode":"fallback"`, `"mode":"held"`, `"csi_imputed":true`, `"env_imputed":true`, `"model_version":"` + v.ID()} {
		if !bytes.Contains(raw, []byte(want)) {
			t.Fatalf("stream never carries %s; the hash would not cover it", want)
		}
	}
	if got := fnv64(raw); got != wireStreamGolden {
		t.Errorf("stream bytes hash %#016x, want %#016x", got, wireStreamGolden)
	}
}
