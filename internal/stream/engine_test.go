package stream_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/stream"
)

// TestRuntimeOnEngineBitIdentical is the rewiring guarantee: a Runtime
// whose Predictors are served through the inference engine
// (core.DetectorEngine) — with dozens of runtimes sharing the engines —
// must emit exactly the decision sequence of a
// Runtime calling the detectors directly — same probabilities (bit for
// bit), same labels, same mode transitions — across a faulty stream that
// exercises imputation, fallback and recovery.
func TestRuntimeOnEngineBitIdentical(t *testing.T) {
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
	primary, err := core.TrainDetector(d, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	dcfg.Features = dataset.FeatCSI
	fallback, err := core.TrainDetector(d, dcfg)
	if err != nil {
		t.Fatal(err)
	}

	// A moderately hostile frame sequence: drops, env outages, recovery.
	inj := fault.NewInjector(fault.DefaultProfile(3).Scale(0.8))
	frames := make([]fault.Frame, 0, 600)
	for i := 0; i < 600; i++ {
		frames = append(frames, inj.Apply(d.Records[i%d.Len()]))
	}

	directReg := obs.NewRegistry()
	runCfg := stream.Config{
		Primary:        primary,
		Fallback:       fallback,
		PrimaryUsesEnv: true,
		WatchdogFrames: 10,
		RecoverFrames:  20,
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
	var firstFallback int
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
			if r == 0 {
				firstFallback = served.FirstFallbackFrame()
			}
		}(r)
	}
	wg.Wait()
	for _, name := range []string{
		"stream_frames_total", "stream_primary_frames_total",
		"stream_fallback_frames_total", "stream_held_frames_total",
		"stream_csi_imputed_total", "stream_env_imputed_total",
		"stream_degradations_total", "stream_recoveries_total",
		"stream_flips_total",
	} {
		dv := directReg.Counter(name, "").Value()
		sv := servedReg.Counter(name, "").Value()
		if dv != sv {
			t.Errorf("%s diverges: direct %d != engine-served %d", name, dv, sv)
		}
	}
	if direct.FirstFallbackFrame() != firstFallback {
		t.Fatalf("first fallback frame diverges: direct %d != engine-served %d",
			direct.FirstFallbackFrame(), firstFallback)
	}
}
