package envsim

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"
)

var baseTime = time.Date(2022, 1, 4, 15, 8, 40, 0, time.UTC)

func runFor(s *Simulator, start time.Time, d time.Duration, dt time.Duration, occ int) (State, []State) {
	var states []State
	t := start
	var st State
	for elapsed := time.Duration(0); elapsed < d; elapsed += dt {
		st = s.Step(t, dt, occ)
		states = append(states, st)
		t = t.Add(dt)
	}
	return st, states
}

func TestThermostatRegulatesAroundSetpoint(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NoiseTemp = 0
	cfg.NoiseHumidity = 0
	s := NewSimulator(cfg, rand.New(rand.NewSource(1)))
	// Run 12 daytime hours (heating enabled) with no occupants.
	start := time.Date(2022, 1, 4, 7, 0, 0, 0, time.UTC)
	_, states := runFor(s, start, 12*time.Hour, time.Minute, 0)
	// After settling, temperature must track the setpoint band.
	for _, st := range states[len(states)/2:] {
		if st.Temp < cfg.Setpoint-2*cfg.Hysteresis || st.Temp > cfg.Setpoint+2*cfg.Hysteresis {
			t.Fatalf("temperature %g escaped the regulation band", st.Temp)
		}
	}
}

func TestNightCooling(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NoiseTemp = 0
	cfg.NoiseHumidity = 0
	s := NewSimulator(cfg, rand.New(rand.NewSource(2)))
	// Heater off at night (schedule 6–20): from 21:00, temp must fall.
	start := time.Date(2022, 1, 4, 21, 0, 0, 0, time.UTC)
	first := s.Step(start, time.Minute, 0)
	last, _ := runFor(s, start.Add(time.Minute), 6*time.Hour, time.Minute, 0)
	if last.Temp >= first.Temp {
		t.Fatalf("night temperature did not fall: %g → %g", first.Temp, last.Temp)
	}
	if last.HeaterOn {
		t.Fatal("heater must be off at night")
	}
}

func TestOccupantsWarmAndHumidify(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NoiseTemp = 0
	cfg.NoiseHumidity = 0
	mk := func() *Simulator { return NewSimulator(cfg, rand.New(rand.NewSource(3))) }
	start := time.Date(2022, 1, 5, 9, 0, 0, 0, time.UTC)
	empty, _ := runFor(mk(), start, 4*time.Hour, time.Minute, 0)
	crowded, _ := runFor(mk(), start, 4*time.Hour, time.Minute, 4)
	if crowded.Humidity <= empty.Humidity {
		t.Fatalf("occupants must raise humidity: %g vs %g", crowded.Humidity, empty.Humidity)
	}
	// With the thermostat active the temperature difference is small but
	// the humidity one is unambiguous; check temperature over a heater-off
	// window instead.
	startNight := time.Date(2022, 1, 5, 22, 0, 0, 0, time.UTC)
	emptyN, _ := runFor(mk(), startNight, 4*time.Hour, time.Minute, 0)
	crowdedN, _ := runFor(mk(), startNight, 4*time.Hour, time.Minute, 4)
	if crowdedN.Temp <= emptyN.Temp {
		t.Fatalf("occupants must warm the room: %g vs %g", crowdedN.Temp, emptyN.Temp)
	}
}

func TestOutageForcesHeaterOff(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NoiseTemp = 0
	cfg.NoiseHumidity = 0
	start := time.Date(2022, 1, 7, 8, 0, 0, 0, time.UTC)
	cfg.Outages = []Interval{{From: start, To: start.Add(4 * time.Hour)}}
	s := NewSimulator(cfg, rand.New(rand.NewSource(4)))
	st, states := runFor(s, start, 3*time.Hour, time.Minute, 0)
	for _, x := range states {
		if x.HeaterOn {
			t.Fatal("heater ran during outage")
		}
	}
	if st.Temp >= cfg.InitialTemp {
		t.Fatalf("outage should cool the room, got %g", st.Temp)
	}
}

func TestBoostOverheats(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NoiseTemp = 0
	cfg.NoiseHumidity = 0
	start := time.Date(2022, 1, 7, 13, 0, 0, 0, time.UTC)
	cfg.Boosts = []Interval{{From: start, To: start.Add(6 * time.Hour)}}
	s := NewSimulator(cfg, rand.New(rand.NewSource(5)))
	st, _ := runFor(s, start, 5*time.Hour, time.Minute, 4)
	if st.Temp < cfg.Setpoint+3 {
		t.Fatalf("boost must push past the setpoint band, got %g", st.Temp)
	}
}

func TestOutdoorTempDiurnal(t *testing.T) {
	s := NewSimulator(DefaultConfig(), rand.New(rand.NewSource(6)))
	coldest := s.OutdoorTemp(time.Date(2022, 1, 5, 5, 0, 0, 0, time.UTC))
	warmest := s.OutdoorTemp(time.Date(2022, 1, 5, 17, 0, 0, 0, time.UTC))
	if warmest-coldest < 6 {
		t.Fatalf("diurnal swing too small: %g..%g", coldest, warmest)
	}
	def := DefaultConfig()
	if math.Abs(coldest-(def.OutdoorMeanTemp-def.OutdoorTempSwing)) > 0.5 ||
		math.Abs(warmest-(def.OutdoorMeanTemp+def.OutdoorTempSwing)) > 0.5 {
		t.Fatalf("extremes off: %g, %g", coldest, warmest)
	}
}

func TestHumidityClamped(t *testing.T) {
	cfg := DefaultConfig()
	cfg.InitialHumidity = 6
	cfg.OutdoorHumidity = -100 // force the target far below the clamp
	cfg.NoiseHumidity = 0
	s := NewSimulator(cfg, rand.New(rand.NewSource(7)))
	st, _ := runFor(s, baseTime, 10*time.Hour, time.Minute, 0)
	if st.Humidity < 5 {
		t.Fatalf("humidity must be clamped at 5, got %g", st.Humidity)
	}
}

func TestDeterministicForSeed(t *testing.T) {
	run := func() []State {
		s := NewSimulator(DefaultConfig(), rand.New(rand.NewSource(8)))
		_, states := runFor(s, baseTime, 2*time.Hour, time.Minute, 1)
		return states
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("simulation must be deterministic for a fixed seed")
		}
	}
}

func TestAbsoluteHumidity(t *testing.T) {
	// Reference point: 20 °C, 50 % RH → ≈ 8.6 g/m³.
	got := AbsoluteHumidity(20, 50)
	if math.Abs(got-8.6) > 0.3 {
		t.Fatalf("AH(20,50) = %g, want ≈8.6", got)
	}
	// Monotonic in both arguments.
	if AbsoluteHumidity(25, 50) <= AbsoluteHumidity(20, 50) {
		t.Fatal("AH must grow with temperature")
	}
	if AbsoluteHumidity(20, 60) <= AbsoluteHumidity(20, 50) {
		t.Fatal("AH must grow with RH")
	}
}

func TestIntervalContains(t *testing.T) {
	iv := Interval{From: baseTime, To: baseTime.Add(time.Hour)}
	if !iv.Contains(baseTime) {
		t.Fatal("closed at From")
	}
	if iv.Contains(baseTime.Add(time.Hour)) {
		t.Fatal("open at To")
	}
	if iv.Contains(baseTime.Add(-time.Second)) {
		t.Fatal("before From")
	}
}

func TestConfigDefaultsApplied(t *testing.T) {
	s := NewSimulator(Config{}, rand.New(rand.NewSource(9)))
	if s.cfg.Setpoint != DefaultConfig().Setpoint || s.cfg.HeaterPower != DefaultConfig().HeaterPower {
		t.Fatal("defaults not applied")
	}
	if s.state.Temp != DefaultConfig().InitialTemp {
		t.Fatal("initial state")
	}
}

func TestAerationDriesAndOverridesOccupants(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NoiseTemp = 0
	cfg.NoiseHumidity = 0
	cfg.QuantizeHumidity = false
	start := time.Date(2022, 1, 7, 9, 0, 0, 0, time.UTC)
	mk := func(aerate bool) State {
		c := cfg
		if aerate {
			c.Aerations = []Interval{{From: start, To: start.Add(4 * time.Hour)}}
		}
		s := NewSimulator(c, rand.New(rand.NewSource(20)))
		st, _ := runFor(s, start, 3*time.Hour, time.Minute, 4)
		return st
	}
	closed := mk(false)
	aired := mk(true)
	if aired.Humidity >= closed.Humidity-3 {
		t.Fatalf("aeration must dry the room markedly: %g vs %g", aired.Humidity, closed.Humidity)
	}
}

func TestHumidityQuantization(t *testing.T) {
	cfg := DefaultConfig()
	cfg.QuantizeHumidity = true
	s := NewSimulator(cfg, rand.New(rand.NewSource(21)))
	st := s.Step(baseTime, time.Minute, 1)
	if st.Humidity != math.Round(st.Humidity) {
		t.Fatalf("humidity %g not integer-quantised", st.Humidity)
	}
	// Physical state keeps full precision internally (sensor-only effect):
	// repeated stepping should not accumulate rounding drift beyond noise.
	cfg.QuantizeHumidity = false
	s2 := NewSimulator(cfg, rand.New(rand.NewSource(21)))
	st2 := s2.Step(baseTime, time.Minute, 1)
	if math.Abs(st.Humidity-st2.Humidity) > 0.51 {
		t.Fatalf("quantisation moved the reading too far: %g vs %g", st.Humidity, st2.Humidity)
	}
}

func TestSensorNoiseIsMeasurementOnly(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NoiseTemp = 0
	cfg.NoiseHumidity = 0
	cfg.SensorNoiseTemp = 0.5 // large, to make the check decisive
	cfg.QuantizeHumidity = false
	s := NewSimulator(cfg, rand.New(rand.NewSource(22)))
	// Consecutive readings jitter, but the underlying state (s.State())
	// stays smooth because noise never feeds back into the dynamics.
	var readings []float64
	for i := 0; i < 60; i++ {
		st := s.Step(baseTime.Add(time.Duration(i)*time.Second), time.Second, 0)
		readings = append(readings, st.Temp)
	}
	var diffs float64
	for i := 1; i < len(readings); i++ {
		diffs += math.Abs(readings[i] - readings[i-1])
	}
	if diffs/float64(len(readings)-1) < 0.2 {
		t.Fatal("sensor noise not visible in readings")
	}
	// Internal physical state moved by far less than the noise amplitude
	// accumulated over a minute of 1 s steps.
	if math.Abs(s.state.Temp-cfg.InitialTemp) > 0.5 {
		t.Fatalf("physical state contaminated by sensor noise: %g", s.state.Temp)
	}
}

// TestValidateRejectsNonFinite: NaN passes every ordered range check, so
// Validate must refuse NaN and ±Inf in each float field, by name. The table
// is every float64 field of Config, found by reflection, so a field added
// later is covered too.
func TestValidateRejectsNonFinite(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("DefaultConfig: %v", err)
	}
	ct := reflect.TypeOf(Config{})
	n := 0
	for i := 0; i < ct.NumField(); i++ {
		f := ct.Field(i)
		if f.Type.Kind() != reflect.Float64 {
			continue
		}
		n++
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			c := DefaultConfig()
			reflect.ValueOf(&c).Elem().Field(i).SetFloat(bad)
			if err := c.Validate(); err == nil || !strings.Contains(err.Error(), " "+f.Name+" = ") {
				t.Errorf("%s = %v: Validate() = %v, want an error naming the field", f.Name, bad, err)
			}
		}
	}
	if n != 17 {
		t.Fatalf("found %d float fields, want 17", n)
	}
}
