package stream_test

import (
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/stream"
)

// trainedPair trains a small C+E primary and its CSI-only fallback on a
// 26 h trace, and returns them with 600 frames of that trace through a
// moderately hostile fault channel (drops, env outages and stale readings)
// unless envDead, which also kills the env feed for the whole stream.
func trainedPair(t *testing.T, envDead bool) (primary, fallback *core.Detector, frames []fault.Frame) {
	t.Helper()
	gcfg := dataset.DefaultGenConfig(1.0/30, 9)
	gcfg.Start = time.Date(2022, 1, 5, 8, 0, 0, 0, time.UTC)
	gcfg.Duration = 26 * time.Hour
	d, err := dataset.Generate(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	dcfg := core.DefaultDetectorConfig()
	dcfg.Hidden = []int{32, 16}
	dcfg.Train.Epochs = 4
	if primary, err = core.TrainDetector(d, dcfg); err != nil {
		t.Fatal(err)
	}
	dcfg.Features = dataset.FeatCSI
	if fallback, err = core.TrainDetector(d, dcfg); err != nil {
		t.Fatal(err)
	}
	fcfg := fault.DefaultProfile(3).Scale(0.8)
	fcfg.EnvDead = envDead
	inj := fault.NewInjector(fcfg)
	for i := 0; i < 600; i++ {
		frames = append(frames, inj.Apply(d.Records[i%d.Len()]))
	}
	return primary, fallback, frames
}

// TestRuntimeOnEngineBitIdentical is the rewiring guarantee: a Runtime
// whose Predictors are served through the inference engine
// (core.DetectorEngine) — with dozens of runtimes sharing the engines —
// must emit exactly the decision sequence of a
// Runtime calling the detectors directly — same probabilities (bit for
// bit), same labels, same modes — across a faulty stream that exercises
// imputation, fallback and the primary's return.
func TestRuntimeOnEngineBitIdentical(t *testing.T) {
	primary, fallback, frames := trainedPair(t, false)

	directReg := obs.NewRegistry()
	runCfg := stream.Config{
		Primary:        primary,
		Fallback:       fallback,
		PrimaryUsesEnv: true,
		WatchdogFrames: 10,
		SmootherNeed:   3,
		Observer:       directReg,
	}
	direct, err := stream.New(runCfg)
	if err != nil {
		t.Fatal(err)
	}
	var wantDecs []stream.Decision
	for _, f := range frames {
		wantDecs = append(wantDecs, direct.Process(f))
	}

	pe, err := core.NewDetectorEngine(primary, core.ServeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	fe, err := core.NewDetectorEngine(fallback, core.ServeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Two dozen runtimes share the two engines, as feeds share them in
	// the server; runtime 0 carries the registry the counters are
	// compared through.
	const runtimes = 24
	servedReg := obs.NewRegistry()
	var wg sync.WaitGroup
	for r := 0; r < runtimes; r++ {
		engCfg := runCfg
		engCfg.Primary = pe
		engCfg.Fallback = fe
		engCfg.Observer = nil
		if r == 0 {
			engCfg.Observer = servedReg
		}
		served, err := stream.New(engCfg)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i, f := range frames {
				if got := served.Process(f); got != wantDecs[i] {
					t.Errorf("runtime %d frame %d: engine-served decision %+v != direct %+v",
						r, i, got, wantDecs[i])
					return
				}
			}
		}(r)
	}
	wg.Wait()
	for _, name := range []string{
		"stream_frames_total", "stream_primary_frames_total",
		"stream_fallback_frames_total", "stream_held_frames_total",
		"stream_csi_imputed_total", "stream_env_imputed_total",
		"stream_flips_total",
	} {
		dv := directReg.Counter(name, "").Value()
		sv := servedReg.Counter(name, "").Value()
		if dv != sv {
			t.Errorf("%s diverges: direct %d != engine-served %d", name, dv, sv)
		}
	}
	if directReg.Counter("stream_fallback_frames_total", "").Value() == 0 ||
		directReg.Counter("stream_env_imputed_total", "").Value() == 0 {
		t.Fatal("the faulted stream reaches neither the fallback nor env imputation")
	}
}

// TestDeadEnvSensorIsTheFallbackRuntime: with the env feed dead from the
// first frame, the C+E pipeline is its fallback and nothing else. Over a
// faulted trace it decides P (bit for bit), Pred, State and CSIImputed
// exactly as a runtime whose only detector is the fallback, and serves every
// frame the other scores from the fallback.
func TestDeadEnvSensorIsTheFallbackRuntime(t *testing.T) {
	primary, fallback, frames := trainedPair(t, true)
	pipe, err := stream.New(stream.Config{Primary: primary, Fallback: fallback, PrimaryUsesEnv: true, MaxHoldGap: 2, SmootherNeed: 3})
	if err != nil {
		t.Fatal(err)
	}
	alone, err := stream.New(stream.Config{Primary: fallback, MaxHoldGap: 2, SmootherNeed: 3})
	if err != nil {
		t.Fatal(err)
	}
	held := 0
	for i, f := range frames {
		if f.EnvOK {
			t.Fatalf("frame %d carries an env reading from a dead sensor", i)
		}
		got, want := pipe.Process(f), alone.Process(f)
		if math.Float64bits(got.P) != math.Float64bits(want.P) || got.Pred != want.Pred || got.State != want.State ||
			got.Flipped != want.Flipped || got.CSIImputed != want.CSIImputed || got.EnvImputed {
			t.Fatalf("frame %d: pipeline %+v, fallback alone %+v", i, got, want)
		}
		switch want.Mode {
		case stream.ModeHeld:
			held++
			if got.Mode != stream.ModeHeld {
				t.Fatalf("frame %d: pipeline mode %v where the fallback alone held", i, got.Mode)
			}
		default:
			if got.Mode != stream.ModeFallback {
				t.Fatalf("frame %d: pipeline mode %v, want fallback", i, got.Mode)
			}
		}
	}
	if held == 0 {
		t.Fatal("the faulted trace holds no decision; the comparison misses that branch")
	}
}
