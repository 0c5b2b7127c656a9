package server

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/drift"
	"repro/internal/fault"
	"repro/internal/framelog"
	"repro/internal/linmodel"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// randomEngine serves a detector with random (untrained) weights at prec:
// what the snapshot must carry does not depend on the weights being good.
func randomEngine(t testing.TB, features dataset.FeatureSet, prec string, seed int64) *core.DetectorEngine {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	dim := features.Dim()
	det := &core.Detector{
		Net:      nn.NewMLP(dim, []int{16, 8}, 1, rng),
		Scaler:   linmodel.FitScaler(tensor.NewMatrix(32, dim).RandomizeNormal(rng, 1)),
		Features: features,
	}
	e, err := core.NewDetectorEngine(det, core.ServeConfig{Precision: prec})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

// degradingFrames is stream's degradingTrace corpus with CSI a detector
// scores on both sides of 0.5: 60 frames with an env outage long enough to
// impute, then fall back, then return to the primary, isolated dropped
// frames (CSI held) and one run of drops longer than MaxHoldGap (decision
// held).
func degradingFrames() []fault.Frame {
	trace := make([]fault.Frame, 60)
	for i := range trace {
		f := &trace[i]
		f.Index, f.EnvOK = i, i < 10 || i >= 35
		f.Dropped = i%13 == 7 || i >= 48 && i < 52
		f.Rec.Time = time.Date(2022, 1, 5, 9, 0, 0, 0, time.UTC).Add(time.Duration(i) * 50 * time.Millisecond)
		f.Rec.Temp, f.Rec.Humidity = 20+float64(i%5), 40+float64(i%3)
		for k := range f.Rec.CSI {
			f.Rec.CSI[k] = math.Sin(float64(i*7+k)) * float64(1+i%4)
		}
		f.Truth = f.Rec
	}
	return trace
}

// degradingServer is a registry-less server whose feeds run degradingFrames'
// runtime settings, with the drift detector on or off.
func degradingServer(t testing.TB, primary, fallback *core.DetectorEngine, withDrift bool) *Server {
	t.Helper()
	cfg := Config{
		Primary: primary, Fallback: fallback, PrimaryUsesEnv: true,
		MaxHoldGap: 2, WatchdogFrames: 5, SmootherNeed: 2,
		StreamBuffer: 64,
	}
	if withDrift {
		cfg.Drift = drift.Config{Baseline: 8, Window: 4, Bins: 4}
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// TestSnapshotRestoreExact: for every cut k of the degrading corpus, with
// drift off and on, at f64 and at f32, a feed snapshotted after frame k-1 —
// encoded, written as a snapshot file, parsed back — and restored into a
// fresh feed publishes for frames k.. exactly the events an uninterrupted
// feed publishes, P bit for bit, and ends in the same drift state.
func TestSnapshotRestoreExact(t *testing.T) {
	trace := degradingFrames()
	for _, prec := range []string{"f64", "f32"} {
		primary := randomEngine(t, dataset.FeatCSIEnv, prec, 1)
		fallback := randomEngine(t, dataset.FeatCSI, prec, 2)
		for _, withDrift := range []bool{false, true} {
			s := degradingServer(t, primary, fallback, withDrift)
			run := func(f *feed, frames []fault.Frame) []Event {
				sub, _ := f.subscribe(true)
				for i := range frames {
					f.decide(&frames[i])
				}
				evs := make([]Event, len(frames))
				for i := range evs {
					evs[i] = <-sub.ch
				}
				return evs
			}
			ref, err := s.newFeed("ref")
			if err != nil {
				t.Fatal(err)
			}
			want := run(ref, append([]fault.Frame(nil), trace...))
			modes := map[string]bool{}
			for _, ev := range want {
				modes[ev.Mode] = true
			}
			if !modes["primary"] || !modes["fallback"] || !modes["held"] {
				t.Fatalf("corpus does not reach every mode: %v", modes)
			}
			for k := 1; k <= len(trace); k++ {
				a, _ := s.newFeed("a")
				run(a, append([]fault.Frame(nil), trace[:k]...))
				file := framelog.EncodeSnapshot(framelog.Snapshot{
					Anchor: framelog.Anchor{Next: k}, Scorer: a.scorer(), State: a.encodeState()})
				b, _ := s.newFeed("b")
				if _, reason, err := b.restore(framelog.ParseSnapshot(file)); reason != "" || err != nil {
					t.Fatalf("%s drift=%v k=%d: snapshot not restored (%q, %v)", prec, withDrift, k, reason, err)
				}
				if !sameBits(b.last, want[k-1]) {
					t.Fatalf("%s drift=%v k=%d: restored latest %+v, want %+v", prec, withDrift, k, b.last, want[k-1])
				}
				for i, ev := range run(b, append([]fault.Frame(nil), trace[k:]...)) {
					if !sameBits(ev, want[k+i]) {
						t.Fatalf("%s drift=%v k=%d: frame %d published %+v, want %+v", prec, withDrift, k, k+i, ev, want[k+i])
					}
				}
				if withDrift && b.drift.State() != ref.drift.State() {
					t.Fatalf("%s k=%d: drift state %+v, want %+v", prec, k, b.drift.State(), ref.drift.State())
				}
			}
		}
	}
}

// sameBits compares two events with P at the bit level.
func sameBits(a, b Event) bool {
	pa, pb := a.P, b.P
	a.P, b.P = 0, 0
	a.Time, b.Time = a.Time.UTC(), b.Time.UTC()
	return math.Float64bits(pa) == math.Float64bits(pb) && a == b
}

// FuzzSnapshot feeds arbitrary bytes to the snapshot decoders twice: as a
// whole snapshot file, and as the state inside a valid file this feed's
// scorer wrote. Neither may panic; a file that parses re-encodes to its own
// bytes; a snapshot recovery ignores leaves the feed exactly fresh; and a
// state that restores re-encodes to the bytes it was restored from.
// (ParseSnapshot allocates at most the scorer string, capped; the state
// decoders allocate a fixed set of fields and strings no longer than their
// input.)
func FuzzSnapshot(f *testing.F) {
	primary := randomEngine(f, dataset.FeatCSIEnv, "f64", 1)
	s := degradingServer(f, primary, randomEngine(f, dataset.FeatCSI, "f64", 2), true)
	seedFeed, err := s.newFeed("fuzz")
	if err != nil {
		f.Fatal(err)
	}
	fresh, scorer := seedFeed.encodeState(), seedFeed.scorer()
	trace := degradingFrames()
	for i := range trace[:30] {
		seedFeed.decide(&trace[i])
	}
	state := seedFeed.encodeState()
	anchor := framelog.Anchor{Next: 30, CRC: 0xC0FFEE}
	file := framelog.EncodeSnapshot(framelog.Snapshot{Anchor: anchor, Scorer: scorer, State: state})

	le := binary.LittleEndian
	patch := func(b []byte, at int, v uint32) []byte {
		b = append([]byte(nil), b...)
		le.PutUint32(b[at:], v)
		return b
	}
	flip := func(b []byte, at int) []byte {
		b = append([]byte(nil), b...)
		b[at] ^= 1
		return b
	}
	damaged := [][]byte{
		nil, file[:10], file[:16], file[:len(file)/2], file[:len(file)-1], // truncations
		patch(file, 8, 1<<32-1), patch(file, 8, uint32(len(file))), // hostile lengths
		flip(file, len(file)-1), // bad CRC
		patch(file, 4, 2),       // unknown version
		framelog.EncodeSnapshot(framelog.Snapshot{Anchor: anchor, Scorer: strings.Repeat("x", 5000), State: state}),
	}
	for i, d := range damaged {
		if _, err := framelog.ParseSnapshot(d); err == nil {
			f.Fatalf("damaged snapshot %d parsed", i)
		}
		f.Add(d)
	}
	f.Add(file)
	f.Add(state)
	f.Add(fresh)
	f.Add(state[:len(state)-3])    // short state
	f.Add(patch(state, 0, 1))      // the previous runtime-state version
	f.Add(patch(state, 8*12, 7))   // a decision mode the runtime has no name for
	f.Add(patch(state, 8*3, 2))    // a bool that is neither 0 nor 1
	f.Add(patch(state, 8*3, 1<<8)) // ... in a higher byte

	f.Fuzz(func(t *testing.T, b []byte) {
		if snap, err := framelog.ParseSnapshot(b); err == nil && !bytes.Equal(framelog.EncodeSnapshot(snap), b) {
			t.Fatal("a snapshot file that parses does not re-encode to its bytes")
		}
		for _, file := range [][]byte{b, framelog.EncodeSnapshot(framelog.Snapshot{Anchor: anchor, Scorer: scorer, State: b})} {
			g, err := s.newFeed("fuzz")
			if err != nil {
				t.Fatal(err)
			}
			from, reason, err := g.restore(framelog.ParseSnapshot(file))
			if err != nil {
				t.Fatal(err)
			}
			got := g.encodeState()
			if reason != "" && !bytes.Equal(got, fresh) {
				t.Fatalf("snapshot ignored (%s), but the feed is not fresh", reason)
			}
			if reason == "" && !bytes.Equal(framelog.EncodeSnapshot(framelog.Snapshot{Anchor: from, Scorer: g.scorer(), State: got}), file) {
				t.Fatal("a restored state does not re-encode to the snapshot it came from")
			}
		}
	})
}
