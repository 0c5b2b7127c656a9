package csi

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/agents"
	"repro/internal/envsim"
	"repro/internal/stats"
)

var testTime = time.Date(2022, 1, 4, 15, 8, 40, 0, time.UTC)

func emptySnap(ver int) *agents.Snapshot {
	return &agents.Snapshot{
		Time:          testTime,
		Furniture:     []agents.Point{{X: 2, Y: 2}, {X: 10, Y: 4}},
		LayoutVersion: ver,
	}
}

func occupiedSnap(ver int, persons ...agents.PersonView) *agents.Snapshot {
	s := emptySnap(ver)
	s.Present = persons
	s.Count = len(persons)
	return s
}

var calmEnv = envsim.State{Temp: 21, Humidity: 40}

func TestSampleShapeAndPositivity(t *testing.T) {
	s := NewSampler(Config{Seed: 1})
	amps := s.Sample(emptySnap(0), calmEnv, 0.05)
	if len(amps) != NumSubcarriers {
		t.Fatalf("want %d subcarriers", NumSubcarriers)
	}
	for k, a := range amps {
		if a < 0 || math.IsNaN(a) || math.IsInf(a, 0) {
			t.Fatalf("subcarrier %d amplitude %g invalid", k, a)
		}
	}
}

func TestFrequencySelectivity(t *testing.T) {
	// Multipath must give different amplitudes on different subcarriers.
	s := NewSampler(Config{Seed: 2})
	amps := s.Sample(emptySnap(0), calmEnv, 0.05)
	if stats.StdDev(amps[:]) < 1e-3 {
		t.Fatal("channel is flat; multipath not working")
	}
}

func TestAGCConvergesToTarget(t *testing.T) {
	s := NewSampler(Config{Seed: 3})
	var amps [NumSubcarriers]float64
	for i := 0; i < 400; i++ { // 20 s at 20 Hz
		amps = s.Sample(emptySnap(0), calmEnv, 0.05)
	}
	if m := stats.Mean(amps[:]); math.Abs(m-0.5) > 0.1 {
		t.Fatalf("AGC mean %g, want ≈0.5", m)
	}
}

func TestOccupancyChangesChannel(t *testing.T) {
	mk := func() *Sampler { return NewSampler(Config{Seed: 4}) }
	sEmpty, sOcc := mk(), mk()
	person := agents.PersonView{ID: 0, Pos: agents.Point{X: 6, Y: 3.2}, Activity: agents.Standing}
	var lastE, lastO [NumSubcarriers]float64
	for i := 0; i < 100; i++ {
		lastE = sEmpty.Sample(emptySnap(0), calmEnv, 0.05)
		lastO = sOcc.Sample(occupiedSnap(0, person), calmEnv, 0.05)
	}
	var diff float64
	for k := range lastE {
		diff += math.Abs(lastE[k] - lastO[k])
	}
	if diff/NumSubcarriers < 0.01 {
		t.Fatalf("a person near the LoS barely changed the channel: %g", diff/NumSubcarriers)
	}
}

func TestMovingPersonDecorrelatesChannel(t *testing.T) {
	// Tick-to-tick variance must be larger with a moving person than empty.
	variability := func(persons ...agents.PersonView) float64 {
		s := NewSampler(Config{Seed: 5, NoiseSigma: 1e-4})
		snap := occupiedSnap(0, persons...)
		for i := 0; i < 100; i++ { // settle the AGC
			s.Sample(snap, calmEnv, 0.05)
		}
		prev := s.Sample(snap, calmEnv, 0.05)
		var total float64
		for i := 0; i < 200; i++ {
			cur := s.Sample(snap, calmEnv, 0.05)
			for k := range cur {
				total += math.Abs(cur[k] - prev[k])
			}
			prev = cur
		}
		return total
	}
	still := variability()
	moving := variability(agents.PersonView{
		ID: 0, Pos: agents.Point{X: 4, Y: 2}, Activity: agents.Walking, Speed: 1.1,
	})
	if moving < 2*still {
		t.Fatalf("movement must visibly agitate the channel: still=%g moving=%g", still, moving)
	}
}

func TestFurnitureMoveChangesStaticPattern(t *testing.T) {
	s := NewSampler(Config{Seed: 6, NoiseSigma: 1e-9})
	for i := 0; i < 200; i++ { // settle the AGC
		s.Sample(emptySnap(0), calmEnv, 0.05)
	}
	a := s.Sample(emptySnap(0), calmEnv, 0.05)
	// Same layout: nearly identical (tiny noise).
	b := s.Sample(emptySnap(0), calmEnv, 0.05)
	var same float64
	for k := range a {
		same += math.Abs(a[k] - b[k])
	}
	// Moved furniture (new layout version, shifted item).
	moved := emptySnap(1)
	moved.Furniture = []agents.Point{{X: 5.5, Y: 3.5}, {X: 10, Y: 4}}
	c := s.Sample(moved, calmEnv, 0.05)
	var diff float64
	for k := range a {
		diff += math.Abs(a[k] - c[k])
	}
	if diff < 3*same {
		t.Fatalf("furniture move should dominate noise: diff=%g same=%g", diff, same)
	}
}

func TestEnvironmentAffectsChannelNonTrivially(t *testing.T) {
	// Different (T,H) must change the amplitude pattern of an empty room.
	sample := func(env envsim.State) [NumSubcarriers]float64 {
		s := NewSampler(Config{Seed: 7, NoiseSigma: 1e-9})
		return s.Sample(emptySnap(0), env, 0.05)
	}
	cold := sample(envsim.State{Temp: 18, Humidity: 25})
	hot := sample(envsim.State{Temp: 30, Humidity: 45})
	var diff float64
	for k := range cold {
		diff += math.Abs(cold[k] - hot[k])
	}
	if diff/NumSubcarriers < 1e-3 {
		t.Fatalf("environment signature too weak: %g", diff/NumSubcarriers)
	}
}

func TestStationarityOfLongRun(t *testing.T) {
	// §V-A: the CSI series must be stationary (ADF rejects the unit root).
	s := NewSampler(Config{Seed: 8})
	snap := emptySnap(0)
	series := make([]float64, 600)
	for i := range series {
		amps := s.Sample(snap, calmEnv, 0.05)
		series[i] = amps[20]
	}
	res, err := stats.ADF(series, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stationary() {
		t.Fatalf("CSI subcarrier series must be stationary: %v", res)
	}
}

func TestDeterministicForSeed(t *testing.T) {
	run := func() [NumSubcarriers]float64 {
		s := NewSampler(Config{Seed: 9})
		var out [NumSubcarriers]float64
		for i := 0; i < 50; i++ {
			out = s.Sample(emptySnap(0), calmEnv, 0.05)
		}
		return out
	}
	if run() != run() {
		t.Fatal("sampler must be deterministic for a fixed seed")
	}
}

func TestLineDistance(t *testing.T) {
	s := NewSampler(Config{Seed: 11}) // TX (5,3), RX (7,3)
	if d := s.lineDistance(agents.Point{X: 6, Y: 3}); d != 0 {
		t.Fatalf("on-segment distance %g", d)
	}
	if d := s.lineDistance(agents.Point{X: 6, Y: 4}); math.Abs(d-1) > 1e-12 {
		t.Fatalf("perpendicular distance %g", d)
	}
	// Beyond the segment end: distance to the endpoint.
	if d := s.lineDistance(agents.Point{X: 9, Y: 3}); math.Abs(d-2) > 1e-12 {
		t.Fatalf("endpoint distance %g", d)
	}
}

func TestDefaultsApplied(t *testing.T) {
	s := NewSampler(Config{})
	if s.cfg.CenterFreqHz != 2.412e9 || s.cfg.TX.Dist(s.cfg.RX) != 2 {
		t.Fatal("defaults not applied")
	}
}

func TestSampleComplexConsistentWithAmplitudes(t *testing.T) {
	a := NewSampler(Config{Seed: 12})
	b := NewSampler(Config{Seed: 12})
	snap := emptySnap(0)
	for i := 0; i < 20; i++ {
		amps := a.Sample(snap, calmEnv, 0.05)
		rx := b.SampleComplex(snap, calmEnv, 0.05)
		for k := range amps {
			if math.Abs(amps[k]-math.Hypot(real(rx[k]), imag(rx[k]))) > 1e-12 {
				t.Fatal("amplitude path must equal |complex path|")
			}
		}
	}
}

// TestValidateRejectsNonFinite: NaN passes every ordered range check, so
// Validate must refuse NaN and ±Inf in each float field, by name. The table
// is every float64 field of Config — TX and RX coordinates included —
// found by reflection, so a field added later is covered too.
func TestValidateRejectsNonFinite(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("DefaultConfig: %v", err)
	}
	type field struct {
		name  string
		index []int
	}
	var fields []field
	ct := reflect.TypeOf(Config{})
	for i := 0; i < ct.NumField(); i++ {
		f := ct.Field(i)
		switch f.Type.Kind() {
		case reflect.Float64:
			fields = append(fields, field{f.Name, f.Index})
		case reflect.Struct:
			for j := 0; j < f.Type.NumField(); j++ {
				if g := f.Type.Field(j); g.Type.Kind() == reflect.Float64 {
					fields = append(fields, field{f.Name + "." + g.Name, []int{i, j}})
				}
			}
		}
	}
	if len(fields) != 16 {
		t.Fatalf("found %d float fields, want 16", len(fields))
	}
	for _, f := range fields {
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			c := DefaultConfig()
			reflect.ValueOf(&c).Elem().FieldByIndex(f.index).SetFloat(bad)
			if err := c.Validate(); err == nil || !strings.Contains(err.Error(), " "+f.name+" = ") {
				t.Errorf("%s = %v: Validate() = %v, want an error naming the field", f.name, bad, err)
			}
		}
	}
}
