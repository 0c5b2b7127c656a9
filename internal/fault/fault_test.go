package fault

import (
	"context"
	"math"
	"testing"
	"time"

	"repro/internal/csi"
	"repro/internal/dataset"
	"repro/internal/obs"
)

// count reads one counter back from a test registry.
func count(reg *obs.Registry, name string) int {
	return int(reg.Counter(name, "").Value())
}

// testRecords returns a short clean trace to push through the channel.
func testRecords(t *testing.T, n int) []dataset.Record {
	t.Helper()
	cfg := dataset.DefaultGenConfig(1, 9)
	cfg.Start = time.Date(2022, 1, 5, 9, 0, 0, 0, time.UTC)
	cfg.Duration = time.Duration(n) * time.Second
	var out []dataset.Record
	if err := dataset.Stream(context.Background(), cfg, func(r dataset.Record) error {
		out = append(out, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(out) != n {
		t.Fatalf("got %d records, want %d", len(out), n)
	}
	return out
}

func TestZeroConfigIsIdentity(t *testing.T) {
	recs := testRecords(t, 200)
	reg := obs.NewRegistry()
	in := NewInjector(Config{Seed: 1, Observer: reg})
	for i, r := range recs {
		f := in.Apply(r)
		if f.Dropped || !f.EnvOK || f.EnvStale || f.Nulled != 0 || f.AGCGlitch {
			t.Fatalf("frame %d: zero config injected a fault: %+v", i, f)
		}
		if f.Rec != r {
			t.Fatalf("frame %d: record mutated by identity channel", i)
		}
		if f.Truth != r {
			t.Fatalf("frame %d: truth record mutated", i)
		}
	}
	for _, name := range []string{
		"fault_dropped_total", "fault_env_missing_total",
		"fault_null_bursts_total", "fault_agc_jumps_total",
	} {
		if v := count(reg, name); v != 0 {
			t.Fatalf("identity channel accumulated %s = %d", name, v)
		}
	}
}

func TestScaleZeroDisablesEverything(t *testing.T) {
	cfg := DefaultProfile(3)
	cfg.EnvDead = true
	z := cfg.Scale(0)
	recs := testRecords(t, 100)
	in := NewInjector(z)
	for _, r := range recs {
		f := in.Apply(r)
		if f.Dropped || !f.EnvOK || f.Rec != r {
			t.Fatalf("Scale(0) injected a fault")
		}
	}
}

func TestDeterministicTraces(t *testing.T) {
	recs := testRecords(t, 500)
	cfg := DefaultProfile(7)
	regA, regB := obs.NewRegistry(), obs.NewRegistry()
	cfgA, cfgB := cfg, cfg
	cfgA.Observer, cfgB.Observer = regA, regB
	a, b := NewInjector(cfgA), NewInjector(cfgB)
	for _, r := range recs {
		fa, fb := a.Apply(r), b.Apply(r)
		if fa != fb {
			t.Fatalf("frame %d differs between identically seeded injectors", fa.Index)
		}
	}
	if a.TraceHash() != b.TraceHash() {
		t.Fatalf("trace hashes differ: %x vs %x", a.TraceHash(), b.TraceHash())
	}
	for _, name := range []string{
		"fault_frames_total", "fault_dropped_total", "fault_env_missing_total",
		"fault_env_stale_total", "fault_null_bursts_total", "fault_agc_jumps_total",
	} {
		if count(regA, name) != count(regB, name) {
			t.Fatalf("%s differs: %d vs %d", name, count(regA, name), count(regB, name))
		}
	}

	// A different seed must give a different trace.
	cfg2 := cfg
	cfg2.Seed = 8
	c := NewInjector(cfg2)
	for _, r := range recs {
		c.Apply(r)
	}
	if c.TraceHash() == a.TraceHash() {
		t.Fatalf("different seeds produced identical trace hashes")
	}
}

func TestBurstyLossRateAndBurstiness(t *testing.T) {
	recs := testRecords(t, 2000)
	cfg := Config{
		Seed:       11,
		PGoodToBad: 0.02,
		PBadToGood: 0.25,
		LossGood:   0.01,
		LossBad:    0.75,
	}
	in := NewInjector(cfg)
	var dropRuns, drops, prevDropped int
	for _, r := range recs {
		f := in.Apply(r)
		if f.Dropped {
			drops++
			if prevDropped == 0 {
				dropRuns++
			}
			prevDropped = 1
		} else {
			prevDropped = 0
		}
	}
	rate := float64(drops) / float64(len(recs))
	if rate < 0.03 || rate > 0.45 {
		t.Fatalf("loss rate %.3f outside the plausible Gilbert–Elliott band", rate)
	}
	// Bursts: mean run length must exceed 1 (i.i.d. loss would sit at ~1.0x).
	meanRun := float64(drops) / float64(dropRuns)
	if meanRun < 1.5 {
		t.Fatalf("mean drop run %.2f — loss is not bursty", meanRun)
	}
}

func TestEnvDeadKillsFeedEveryFrame(t *testing.T) {
	recs := testRecords(t, 100)
	reg := obs.NewRegistry()
	in := NewInjector(Config{Seed: 1, EnvDead: true, Observer: reg})
	for _, r := range recs {
		f := in.Apply(r)
		if f.EnvOK {
			t.Fatalf("EnvDead frame %d still has env", f.Index)
		}
		if f.Rec.Temp != 0 || f.Rec.Humidity != 0 {
			t.Fatalf("EnvDead frame %d leaked readings", f.Index)
		}
		if f.Truth.Temp == 0 {
			t.Fatalf("truth lost the clean env reading")
		}
	}
	if got := count(reg, "fault_env_missing_total"); got != len(recs) {
		t.Fatalf("fault_env_missing_total = %d, want %d", got, len(recs))
	}
}

func TestAGCJumpScalesWholeVector(t *testing.T) {
	recs := testRecords(t, 400)
	cfg := Config{Seed: 5, AGCJumpProb: 0.1, AGCJumpMaxLog2: 1, AGCRecovery: 0.05}
	in := NewInjector(cfg)
	sawGlitch := false
	for _, r := range recs {
		f := in.Apply(r)
		if !f.AGCGlitch {
			continue
		}
		sawGlitch = true
		// A common gain preserves amplitude ratios.
		var g float64
		for k := 0; k < csi.NumSubcarriers; k++ {
			if r.CSI[k] == 0 {
				continue
			}
			ratio := f.Rec.CSI[k] / r.CSI[k]
			if g == 0 {
				g = ratio
			} else if math.Abs(ratio-g) > 1e-9 {
				t.Fatalf("AGC glitch is not a common gain: %g vs %g", ratio, g)
			}
		}
		if g == 1 {
			t.Fatalf("AGC glitch with unit gain")
		}
	}
	if !sawGlitch {
		t.Fatalf("no AGC glitch in 400 frames at p=0.1")
	}
}

func TestNullBurstsZeroContiguousBlock(t *testing.T) {
	recs := testRecords(t, 600)
	reg := obs.NewRegistry()
	cfg := Config{Seed: 2, NullProb: 0.05, NullMaxWidth: 6, NullMeanLen: 5, Observer: reg}
	in := NewInjector(cfg)
	nulled := 0
	for _, r := range recs {
		f := in.Apply(r)
		if f.Nulled > 0 {
			nulled++
			zeros := 0
			for k := range f.Rec.CSI {
				if f.Rec.CSI[k] == 0 && r.CSI[k] != 0 {
					zeros++
				}
			}
			if zeros != f.Nulled {
				t.Fatalf("Nulled=%d but %d subcarriers zeroed", f.Nulled, zeros)
			}
		}
	}
	if nulled == 0 {
		t.Fatalf("no null burst in 600 frames at p=0.05")
	}
	if count(reg, "fault_null_bursts_total") == 0 {
		t.Fatalf("counters missed the null bursts")
	}
}

func TestStaleEnvRepeatsLastReading(t *testing.T) {
	recs := testRecords(t, 500)
	cfg := Config{Seed: 4, EnvStaleProb: 0.2}
	in := NewInjector(cfg)
	var lastTemp, lastHum float64
	have := false
	stale := 0
	for _, r := range recs {
		f := in.Apply(r)
		if f.EnvStale {
			stale++
			if !have {
				t.Fatalf("stale frame before any real reading")
			}
			if f.Rec.Temp != lastTemp || f.Rec.Humidity != lastHum {
				t.Fatalf("stale frame does not repeat the last real reading")
			}
		} else if f.EnvOK {
			lastTemp, lastHum = f.Rec.Temp, f.Rec.Humidity
			have = true
		}
	}
	if stale == 0 {
		t.Fatalf("no stale readings in 500 frames at p=0.2")
	}
}
