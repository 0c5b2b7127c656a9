package stream

import (
	"bytes"
	"context"
	"errors"
	"go/parser"
	"go/token"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/statecodec"
)

// fakePred records every record it is asked to classify and returns a
// canned answer.
type fakePred struct {
	p     float64
	pred  int
	calls []dataset.Record
}

func (f *fakePred) PredictRecord(r *dataset.Record) (float64, int) {
	f.calls = append(f.calls, *r)
	return f.p, f.pred
}

// count reads one counter back from a test registry.
func count(reg *obs.Registry, name string) int {
	return int(reg.Counter(name, "").Value())
}

// frame builds a clean frame with recognisable CSI and env values.
func frame(i int, temp float64) fault.Frame {
	var f fault.Frame
	f.Index = i
	f.EnvOK = true
	f.Rec.Time = time.Date(2022, 1, 5, 9, 0, 0, 0, time.UTC).Add(time.Duration(i) * time.Second)
	f.Rec.Temp = temp
	f.Rec.Humidity = temp * 2
	for k := range f.Rec.CSI {
		f.Rec.CSI[k] = float64(i*100 + k)
	}
	f.Truth = f.Rec
	return f
}

func TestSmootherHysteresis(t *testing.T) {
	sm := NewSmoother(0, 3)
	seq := []int{1, 1, 0, 1, 1, 1, 0, 0, 0}
	wantState := []int{0, 0, 0, 0, 0, 1, 1, 1, 0}
	wantFlip := []bool{false, false, false, false, false, true, false, false, true}
	for i, p := range seq {
		st, fl := sm.Push(p)
		if st != wantState[i] || fl != wantFlip[i] {
			t.Fatalf("step %d: got (%d,%v), want (%d,%v)", i, st, fl, wantState[i], wantFlip[i])
		}
	}
}

func TestCleanFramesPassThroughUnchanged(t *testing.T) {
	prim := &fakePred{p: 0.9, pred: 1}
	reg := obs.NewRegistry()
	rt, err := New(Config{Primary: prim, PrimaryUsesEnv: true, Fallback: &fakePred{}, Observer: reg})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		f := frame(i, 20+float64(i))
		d := rt.Process(f)
		if d.Mode != ModePrimary || d.CSIImputed || d.EnvImputed {
			t.Fatalf("frame %d: clean frame altered: %+v", i, d)
		}
		if d.P != 0.9 || d.Pred != 1 || d.State != 1 {
			t.Fatalf("frame %d: decision %+v", i, d)
		}
		if prim.calls[i] != f.Rec {
			t.Fatalf("frame %d: record mutated before inference", i)
		}
	}
	if p, fb, h := count(reg, "stream_primary_frames_total"), count(reg, "stream_fallback_frames_total"), count(reg, "stream_held_frames_total"); p != 10 || fb != 0 || h != 0 {
		t.Fatalf("counters: primary=%d fallback=%d held=%d", p, fb, h)
	}
}

func TestCSIHoldImputationAndHeldDecisions(t *testing.T) {
	prim := &fakePred{p: 0.8, pred: 1}
	reg := obs.NewRegistry()
	rt, err := New(Config{Primary: prim, MaxHoldGap: 2, Observer: reg})
	if err != nil {
		t.Fatal(err)
	}
	good := frame(0, 20)
	rt.Process(good)

	// Two dropped frames bridge with the held CSI vector.
	for i := 1; i <= 2; i++ {
		f := frame(i, 20)
		f.Dropped = true
		f.Rec.CSI = [64]float64{}
		d := rt.Process(f)
		if !d.CSIImputed || d.Mode != ModePrimary {
			t.Fatalf("drop %d: %+v", i, d)
		}
		if prim.calls[len(prim.calls)-1].CSI != good.Rec.CSI {
			t.Fatalf("drop %d: imputed CSI is not the held vector", i)
		}
	}
	// The third consecutive drop exceeds MaxHoldGap: decision held.
	f := frame(3, 20)
	f.Dropped = true
	d := rt.Process(f)
	if d.Mode != ModeHeld {
		t.Fatalf("long gap not held: %+v", d)
	}
	if d.Pred != 1 || d.P != 0.8 {
		t.Fatalf("held decision lost the previous prediction: %+v", d)
	}
	if imp, h := count(reg, "stream_csi_imputed_total"), count(reg, "stream_held_frames_total"); imp != 2 || h != 1 {
		t.Fatalf("counters: imputed=%d held=%d", imp, h)
	}
}

func TestHeldBeforeAnyFrame(t *testing.T) {
	rt, err := New(Config{Primary: &fakePred{}})
	if err != nil {
		t.Fatal(err)
	}
	f := frame(0, 20)
	f.Dropped = true
	d := rt.Process(f)
	if d.Mode != ModeHeld || d.Pred != 0 {
		t.Fatalf("first-frame drop: %+v", d)
	}
}

// TestEnvImputationHoldsWithoutFallback: with no fallback the primary
// scores every frame it can. A frame before the first env reading is held —
// there is nothing to impute from — and every later gap, however long, is
// bridged with the last reading.
func TestEnvImputationHoldsWithoutFallback(t *testing.T) {
	prim := &fakePred{p: 0.6, pred: 1}
	rt, err := New(Config{Primary: prim, PrimaryUsesEnv: true, WatchdogFrames: 3})
	if err != nil {
		t.Fatal(err)
	}
	f := frame(0, 99)
	f.EnvOK = false
	if d := rt.Process(f); d.Mode != ModeHeld || len(prim.calls) != 0 {
		t.Fatalf("frame before the first env reading: %+v, primary called %d times", d, len(prim.calls))
	}
	rt.Process(frame(1, 20))
	rt.Process(frame(2, 22))
	for i := 3; i < 50; i++ {
		f := frame(i, 99) // env missing; 99 must never be seen
		f.EnvOK = false
		d := rt.Process(f)
		if d.Mode != ModePrimary || !d.EnvImputed {
			t.Fatalf("frame %d, %d into the gap: %+v, want primary on imputed env", i, i-2, d)
		}
		if got := prim.calls[len(prim.calls)-1]; got.Temp != 22 || got.Humidity != 44 {
			t.Fatalf("frame %d: imputed env (%g, %g), want the last reading (22, 44)", i, got.Temp, got.Humidity)
		}
	}
}

// TestDegradationAndRecovery walks env gaps of every length around the
// watchdog W: the first W-1 frames of a gap are the primary's on the last
// reading, held; the rest are the fallback's; the first frame with env back
// is the primary's on its own reading, whatever came before.
func TestDegradationAndRecovery(t *testing.T) {
	const w = 5
	for _, gap := range []int{1, w - 1, w, w + 1, 3 * w} {
		prim := &fakePred{p: 0.9, pred: 1}
		fb := &fakePred{p: 0.2, pred: 0}
		reg := obs.NewRegistry()
		rt, err := New(Config{Primary: prim, Fallback: fb, PrimaryUsesEnv: true, WatchdogFrames: w, Observer: reg})
		if err != nil {
			t.Fatal(err)
		}
		i := 0
		for ; i < 3; i++ {
			if d := rt.Process(frame(i, 20+float64(i))); d.Mode != ModePrimary || d.EnvImputed {
				t.Fatalf("gap %d: warm-up frame %d: %+v", gap, i, d)
			}
		}
		for k := 1; k <= gap; k, i = k+1, i+1 {
			f := frame(i, 99)
			f.EnvOK = false
			d := rt.Process(f)
			switch {
			case k < w && (d.Mode != ModePrimary || !d.EnvImputed || d.P != 0.9):
				t.Fatalf("gap %d: frame %d into it: %+v, want primary on imputed env", gap, k, d)
			case k < w && prim.calls[len(prim.calls)-1].Temp != 22:
				t.Fatalf("gap %d: frame %d into it imputed temp %g, want 22", gap, k, prim.calls[len(prim.calls)-1].Temp)
			case k >= w && (d.Mode != ModeFallback || d.EnvImputed || d.P != 0.2):
				t.Fatalf("gap %d: frame %d into it: %+v, want fallback", gap, k, d)
			}
		}
		back := frame(i, 21)
		if d := rt.Process(back); d.Mode != ModePrimary || d.EnvImputed || prim.calls[len(prim.calls)-1] != back.Rec {
			t.Fatalf("gap %d: first frame with env back: %+v, want primary on its own reading", gap, d)
		}
		wantFallback := max(gap-w+1, 0)
		if got := count(reg, "stream_fallback_frames_total"); got != wantFallback || len(fb.calls) != wantFallback {
			t.Fatalf("gap %d: %d fallback frames (%d calls), want %d", gap, got, len(fb.calls), wantFallback)
		}
		if got := count(reg, "stream_env_imputed_total"); got != gap-wantFallback {
			t.Fatalf("gap %d: %d env-imputed frames, want %d", gap, got, gap-wantFallback)
		}
	}
}

func TestNoFallbackWhenPrimaryIgnoresEnv(t *testing.T) {
	prim := &fakePred{p: 0.9, pred: 1}
	fb := &fakePred{p: 0.2, pred: 0}
	rt, err := New(Config{Primary: prim, Fallback: fb, WatchdogFrames: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		f := frame(i, 0)
		f.EnvOK = false
		d := rt.Process(f)
		if d.Mode != ModePrimary || d.EnvImputed {
			t.Fatalf("CSI-only primary reacted to env fault: %+v", d)
		}
	}
	if len(fb.calls) != 0 {
		t.Fatalf("fallback was consulted %d times", len(fb.calls))
	}
}

func TestFallbackFromFirstFrameWhenEnvNeverArrives(t *testing.T) {
	prim := &fakePred{p: 0.9, pred: 1}
	fb := &fakePred{p: 0.2, pred: 0}
	rt, err := New(Config{Primary: prim, Fallback: fb, PrimaryUsesEnv: true, WatchdogFrames: 50})
	if err != nil {
		t.Fatal(err)
	}
	f := frame(0, 0)
	f.EnvOK = false
	d := rt.Process(f)
	if d.Mode != ModeFallback {
		t.Fatalf("first frame without env not served by fallback: %+v", d)
	}
	if len(prim.calls) != 0 {
		t.Fatalf("primary ran without any env reading")
	}
}

// TestRestoreStateRefusesVersion1: the version-1 encoding carried the mode
// state machine and its env history; a runtime without them refuses it and
// keeps its own state.
func TestRestoreStateRefusesVersion1(t *testing.T) {
	rt, err := New(degradingConfig(recordSum{}, recordSum{}, nil))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range degradingTrace()[:20] {
		rt.Process(f)
	}
	before := rt.EncodeState()
	v1 := make([]any, 22+len(rt.lastCSI)+2) // version 1's field count, smoother included
	for k := range v1 {
		v1[k] = new(int)
	}
	if _, err := rt.RestoreState(statecodec.Encode(1, v1...)); err == nil {
		t.Fatal("a version-1 state was restored")
	}
	if after := rt.EncodeState(); !bytes.Equal(after, before) {
		t.Fatal("a refused state changed the runtime")
	}
}

func TestNewRequiresPrimary(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted a config without a primary detector")
	}
}

func TestRunConsumesBoundedQueue(t *testing.T) {
	prim := &fakePred{p: 0.7, pred: 1}
	rt, err := New(Config{Primary: prim})
	if err != nil {
		t.Fatal(err)
	}
	ch := make(chan fault.Frame, 4) // bounded queue
	go func() {
		for i := 0; i < 50; i++ {
			ch <- frame(i, 20) // blocks when the queue is full: backpressure
		}
		close(ch)
	}()
	n := 0
	err = rt.Run(context.Background(), ch, func(f fault.Frame, d Decision) error {
		if f.Index != n {
			t.Errorf("frame %d arrived out of order (want %d)", f.Index, n)
		}
		n++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 50 {
		t.Fatalf("consumed %d frames, want 50", n)
	}
}

func TestRunStopsOnContextCancel(t *testing.T) {
	rt, err := New(Config{Primary: &fakePred{}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	ch := make(chan fault.Frame)
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	if err := rt.Run(ctx, ch, func(fault.Frame, Decision) error { return nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunPropagatesHandlerError(t *testing.T) {
	rt, err := New(Config{Primary: &fakePred{}})
	if err != nil {
		t.Fatal(err)
	}
	ch := make(chan fault.Frame, 1)
	ch <- frame(0, 20)
	sentinel := errors.New("stop")
	if err := rt.Run(context.Background(), ch, func(fault.Frame, Decision) error { return sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
}

func TestSmoothedRuntimeCountsFlips(t *testing.T) {
	// Predictor alternates every 4 frames; with need=3 the smoother flips
	// once per plateau.
	alt := &altPred{}
	reg := obs.NewRegistry()
	rt, err := New(Config{Primary: alt, SmootherNeed: 3, Observer: reg})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		rt.Process(frame(i, 20))
	}
	if got := count(reg, "stream_flips_total"); got != 3 {
		t.Fatalf("flips = %d, want 3", got)
	}
}

type altPred struct{ n int }

func (a *altPred) PredictRecord(*dataset.Record) (float64, int) {
	a.n++
	if (a.n-1)/4%2 == 1 {
		return 0.9, 1
	}
	return 0.1, 0
}

// degradingTrace is the corpus the observer and allocation tests share: 60
// frames with an env outage long enough to impute, then fall back, then
// return to the primary, isolated dropped frames (CSI held) and one run of drops
// longer than degradingConfig's MaxHoldGap (decision held) — every branch
// of Process.
func degradingTrace() []fault.Frame {
	trace := make([]fault.Frame, 60)
	for i := range trace {
		f := frame(i, 20+float64(i%5))
		if i >= 10 && i < 35 {
			f.EnvOK = false // env outage: imputation, then the fallback
		}
		if i%13 == 7 || (i >= 48 && i < 52) {
			f.Dropped = true // CSI gaps: hold-imputation, then held decisions
		}
		trace[i] = f
	}
	return trace
}

func degradingConfig(primary, fallback Predictor, o obs.Observer) Config {
	return Config{
		Primary:        primary,
		Fallback:       fallback,
		PrimaryUsesEnv: true,
		MaxHoldGap:     2,
		WatchdogFrames: 5,
		SmootherNeed:   2,
		Observer:       o,
	}
}

// recordSum is a predictor that reads every field the detectors read and
// allocates nothing, so what Process itself allocates is all there is.
type recordSum struct{}

func (recordSum) PredictRecord(r *dataset.Record) (float64, int) {
	s := r.Temp + r.Humidity
	for _, v := range r.CSI {
		s += v
	}
	return s, int(s) & 1
}

// TestProcessZeroAlloc: the record handed to the detector lives in the
// Runtime, so a frame costs no heap whichever way it goes — primary,
// imputed CSI, imputed env, fallback or held — with or without an observer.
func TestProcessZeroAlloc(t *testing.T) {
	trace := degradingTrace()
	for _, o := range []obs.Observer{nil, obs.NewRegistry()} {
		rt, err := New(degradingConfig(recordSum{}, recordSum{}, o))
		if err != nil {
			t.Fatal(err)
		}
		var seen struct{ primary, fallback, held, csiImputed, envImputed bool }
		// AllocsPerRun calls the function once more than asked, to warm up:
		// 59 measured calls after it, one frame of the corpus each.
		i := 0
		allocs := testing.AllocsPerRun(len(trace)-1, func() {
			d := rt.Process(trace[i])
			i++
			seen.primary = seen.primary || d.Mode == ModePrimary
			seen.fallback = seen.fallback || d.Mode == ModeFallback
			seen.held = seen.held || d.Mode == ModeHeld
			seen.csiImputed = seen.csiImputed || d.CSIImputed
			seen.envImputed = seen.envImputed || d.EnvImputed
		})
		if allocs != 0 {
			t.Errorf("observer %v: Process allocates %v times a frame, want 0", o != nil, allocs)
		}
		if !seen.primary || !seen.fallback || !seen.held || !seen.csiImputed || !seen.envImputed {
			t.Fatalf("corpus did not reach every branch of Process: %+v", seen)
		}
	}
}

// TestObserverDoesNotChangeDecisions replays one degrading trace through two
// identically-configured runtimes — one with a live metrics registry, one
// with the nil default — and requires every decision to match bit for bit.
// Instruments only count; they must never feed back into the pipeline
// (DESIGN.md §10). It also cross-checks the stream_* series against counts
// reconstructed from the decision sequence itself.
func TestObserverDoesNotChangeDecisions(t *testing.T) {
	trace := degradingTrace()
	run := func(o obs.Observer) []Decision {
		rt, err := New(degradingConfig(&fakePred{p: 0.9, pred: 1}, &fakePred{p: 0.2, pred: 0}, o))
		if err != nil {
			t.Fatal(err)
		}
		out := make([]Decision, len(trace))
		for i, f := range trace {
			out[i] = rt.Process(f)
		}
		return out
	}

	plain := run(nil)
	reg := obs.NewRegistry()
	observed := run(reg)

	for i := range plain {
		if plain[i] != observed[i] {
			t.Fatalf("frame %d: decision diverged with observer: %+v != %+v",
				i, observed[i], plain[i])
		}
	}

	// Reconstruct the expected counters from the decisions: every series the
	// runtime exports per frame is derivable from the Decision stream.
	var want struct {
		primary, fallback, held int
		csiImputed, envImputed  int
		flips                   int
	}
	for _, d := range plain {
		switch d.Mode {
		case ModePrimary:
			want.primary++
		case ModeFallback:
			want.fallback++
		case ModeHeld:
			want.held++
		}
		if d.CSIImputed {
			want.csiImputed++
		}
		if d.EnvImputed {
			want.envImputed++
		}
		if d.Flipped {
			want.flips++
		}
	}

	snap := make(map[string]obs.MetricSnapshot)
	for _, m := range reg.Snapshot().Metrics {
		snap[m.Name] = m
	}
	checks := []struct {
		name string
		want int
	}{
		{"stream_frames_total", len(trace)},
		{"stream_primary_frames_total", want.primary},
		{"stream_fallback_frames_total", want.fallback},
		{"stream_held_frames_total", want.held},
		{"stream_csi_imputed_total", want.csiImputed},
		{"stream_env_imputed_total", want.envImputed},
		{"stream_flips_total", want.flips},
	}
	for _, c := range checks {
		m, ok := snap[c.name]
		if !ok {
			t.Fatalf("series %s missing from registry", c.name)
		}
		if int(m.Value) != c.want {
			t.Errorf("%s = %v, want %d (reconstructed from decisions)", c.name, m.Value, c.want)
		}
	}
	// The trace must reach every mode and imputation for the counter checks
	// above to mean anything.
	if want.primary == 0 || want.fallback == 0 || want.held == 0 || want.csiImputed == 0 || want.envImputed == 0 {
		t.Fatalf("trace does not reach every branch: %+v", want)
	}
}

// TestNoClockInStream keeps Process a function of the frame sequence alone,
// as the package doc promises: no non-test file of this package may import
// "time" or "math/rand". A timer or a random draw here is a read-timeout
// watchdog and its backoff jitter returning.
func TestNoClockInStream(t *testing.T) {
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			switch imp.Path.Value {
			case `"time"`, `"math/rand"`, `"math/rand/v2"`:
				t.Errorf("%s imports %s; internal/stream must read no clock and draw no random numbers",
					fset.Position(imp.Pos()), imp.Path.Value)
			}
		}
	}
}
