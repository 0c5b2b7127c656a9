// Package envsim simulates the office's thermal and humidity dynamics — the
// stand-in for the paper's Nordic Thingy 52 ground-truth sensor. It is a
// lumped-parameter (RC) model: a thermostat-driven heater, wall losses to a
// diurnal outdoor climate, occupant body heat and breathing moisture, and
// ventilation exchange. The model is deliberately simple but produces the
// statistical structure the paper's profiling step measures: temperature and
// humidity correlate with each other (ρ≈0.45), with occupancy (ρ≈0.44 and
// 0.35) and with time of day (ρ≈0.77), and both series are stationary over
// the multi-day horizon.
package envsim

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Config parametrises the environment model. Zero values are replaced by
// the defaults in NewSimulator.
type Config struct {
	// InitialTemp is the indoor temperature at simulation start (°C).
	InitialTemp float64
	// InitialHumidity is the indoor relative humidity at start (%).
	InitialHumidity float64
	// Setpoint is the thermostat target (°C).
	Setpoint float64
	// Hysteresis is the thermostat dead-band half-width (°C).
	Hysteresis float64
	// HeaterPower is the heating rate at full power (°C/hour).
	HeaterPower float64
	// WallLeak is the thermal loss coefficient towards outdoors (1/hour).
	WallLeak float64
	// OccupantHeat is the per-person heating rate (°C/hour).
	OccupantHeat float64
	// OccupantMoisture is the per-person humidity source (%RH/hour).
	OccupantMoisture float64
	// VentExchange is the humidity relaxation rate towards the effective
	// outdoor humidity (1/hour).
	VentExchange float64
	// OutdoorMeanTemp and OutdoorTempSwing set the diurnal sinusoid (°C).
	OutdoorMeanTemp, OutdoorTempSwing float64
	// OutdoorHumidity is the effective outdoor relative humidity (%).
	OutdoorHumidity float64
	// OutdoorHumSwing is the diurnal outdoor humidity amplitude (%),
	// peaking at night — it decorrelates indoor humidity from occupancy
	// the way real weather does.
	OutdoorHumSwing float64
	// HeatingSchedule gates the heater by hour of day: [start, end).
	HeatingStartHour, HeatingEndHour int
	// Outages lists intervals during which the heater is forced off —
	// used to script the fold-4 regime break of Table III/IV.
	Outages []Interval
	// Boosts lists intervals during which the heater is forced on at
	// BoostFactor × HeaterPower regardless of the thermostat — used to
	// script the hot fold-5 afternoon (Table III: T up to 31.6 °C).
	Boosts []Interval
	// BoostFactor scales HeaterPower during Boosts (default 2).
	BoostFactor float64
	// Aerations lists intervals during which windows are open: the
	// ventilation exchange runs several times faster and pulls humidity
	// straight to the outdoor level. Scripted alongside the fold-4 heater
	// outage, it breaks the "humid ⇒ occupied" shortcut exactly the way
	// the paper's fold 4 breaks its Env-only baselines.
	Aerations []Interval
	// NoiseTemp / NoiseHumidity are per-√hour random-walk perturbations.
	NoiseTemp, NoiseHumidity float64
	// SensorNoiseTemp is the i.i.d. measurement noise (°C) of the
	// ground-truth sensor; the paper's Table I shows readings jittering
	// by ~0.15 °C between consecutive 50 ms samples.
	SensorNoiseTemp float64
	// QuantizeHumidity rounds reported humidity to whole percent, the
	// Nordic Thingy's output resolution (Table I: 43, 43, 42, ...).
	QuantizeHumidity bool
}

// Interval is a closed-open absolute time range.
type Interval struct {
	From, To time.Time
}

// Contains reports whether t lies in the interval.
func (iv Interval) Contains(t time.Time) bool {
	return !t.Before(iv.From) && t.Before(iv.To)
}

// Validate reports whether the physical parameters are sensible: every
// float field must be finite (NaN would pass any range check and an
// infinite rate turns the series into NaN), rates, powers and noise
// amplitudes non-negative, and the heating schedule hours must lie in
// [0, 24]. Zero values are fine — NewSimulator defaults them.
func (c Config) Validate() error {
	inf := math.Inf(1)
	for _, f := range []struct {
		name      string
		v, lo, hi float64
	}{
		{"InitialTemp", c.InitialTemp, -inf, inf}, {"InitialHumidity", c.InitialHumidity, -inf, inf},
		{"Setpoint", c.Setpoint, -inf, inf}, {"Hysteresis", c.Hysteresis, 0, inf},
		{"HeaterPower", c.HeaterPower, 0, inf}, {"WallLeak", c.WallLeak, 0, inf},
		{"OccupantHeat", c.OccupantHeat, 0, inf}, {"OccupantMoisture", c.OccupantMoisture, 0, inf},
		{"VentExchange", c.VentExchange, 0, inf}, {"OutdoorMeanTemp", c.OutdoorMeanTemp, -inf, inf},
		{"OutdoorTempSwing", c.OutdoorTempSwing, -inf, inf}, {"OutdoorHumidity", c.OutdoorHumidity, -inf, inf},
		{"OutdoorHumSwing", c.OutdoorHumSwing, -inf, inf}, {"BoostFactor", c.BoostFactor, 0, inf},
		{"NoiseTemp", c.NoiseTemp, 0, inf}, {"NoiseHumidity", c.NoiseHumidity, 0, inf},
		{"SensorNoiseTemp", c.SensorNoiseTemp, 0, inf},
	} {
		if math.IsInf(f.v, 0) || !(f.v >= f.lo && f.v <= f.hi) {
			return fmt.Errorf("envsim: %s = %g, want a finite value in [%g, %g]", f.name, f.v, f.lo, f.hi)
		}
	}
	if c.HeatingStartHour < 0 || c.HeatingStartHour > 24 ||
		c.HeatingEndHour < 0 || c.HeatingEndHour > 24 {
		return fmt.Errorf("envsim: heating hours [%d, %d) outside [0, 24]",
			c.HeatingStartHour, c.HeatingEndHour)
	}
	return nil
}

// DefaultConfig returns a January-office parameterisation tuned so the
// generated series land in the paper's Table III ranges (T ≈ 18.4–40 °C
// including the boost transient, H ≈ 16–49 %).
func DefaultConfig() Config {
	return Config{
		InitialTemp:      21.0,
		InitialHumidity:  40.0,
		Setpoint:         21.5,
		Hysteresis:       0.6,
		HeaterPower:      2.0,
		WallLeak:         0.05,
		OccupantHeat:     0.3,
		OccupantMoisture: 2.5,
		VentExchange:     0.9,
		OutdoorMeanTemp:  6.0,
		OutdoorTempSwing: 4.0,
		OutdoorHumidity:  30.0,
		OutdoorHumSwing:  8.0,
		HeatingStartHour: 7,
		HeatingEndHour:   19,
		BoostFactor:      1.4,
		NoiseTemp:        0.08,
		NoiseHumidity:    0.5,
		SensorNoiseTemp:  0.08,
		QuantizeHumidity: true,
	}
}

// State is the instantaneous environment reading.
type State struct {
	Temp     float64 // indoor temperature, °C
	Humidity float64 // indoor relative humidity, %
	HeaterOn bool
	Outdoor  float64 // outdoor temperature, °C
}

// Simulator advances the environment state tick by tick.
type Simulator struct {
	cfg      Config
	state    State
	heaterOn bool
	rng      *rand.Rand
}

// NewSimulator builds a Simulator; zero config fields get defaults.
func NewSimulator(cfg Config, rng *rand.Rand) *Simulator {
	def := DefaultConfig()
	if cfg.InitialTemp == 0 {
		cfg.InitialTemp = def.InitialTemp
	}
	if cfg.InitialHumidity == 0 {
		cfg.InitialHumidity = def.InitialHumidity
	}
	if cfg.Setpoint == 0 {
		cfg.Setpoint = def.Setpoint
	}
	if cfg.Hysteresis == 0 {
		cfg.Hysteresis = def.Hysteresis
	}
	if cfg.HeaterPower == 0 {
		cfg.HeaterPower = def.HeaterPower
	}
	if cfg.WallLeak == 0 {
		cfg.WallLeak = def.WallLeak
	}
	if cfg.OccupantHeat == 0 {
		cfg.OccupantHeat = def.OccupantHeat
	}
	if cfg.OccupantMoisture == 0 {
		cfg.OccupantMoisture = def.OccupantMoisture
	}
	if cfg.VentExchange == 0 {
		cfg.VentExchange = def.VentExchange
	}
	if cfg.OutdoorMeanTemp == 0 {
		cfg.OutdoorMeanTemp = def.OutdoorMeanTemp
	}
	if cfg.OutdoorTempSwing == 0 {
		cfg.OutdoorTempSwing = def.OutdoorTempSwing
	}
	if cfg.OutdoorHumidity == 0 {
		cfg.OutdoorHumidity = def.OutdoorHumidity
	}
	if cfg.OutdoorHumSwing == 0 {
		cfg.OutdoorHumSwing = def.OutdoorHumSwing
	}
	if cfg.HeatingEndHour == 0 {
		cfg.HeatingStartHour = def.HeatingStartHour
		cfg.HeatingEndHour = def.HeatingEndHour
	}
	if cfg.BoostFactor == 0 {
		cfg.BoostFactor = def.BoostFactor
	}
	if cfg.SensorNoiseTemp == 0 {
		cfg.SensorNoiseTemp = def.SensorNoiseTemp
	}
	s := &Simulator{
		cfg: cfg,
		state: State{
			Temp:     cfg.InitialTemp,
			Humidity: cfg.InitialHumidity,
		},
		rng: rng,
	}
	return s
}

// OutdoorTemp returns the diurnal outdoor temperature at time t: coldest
// around 05:00, warmest around 17:00.
func (s *Simulator) OutdoorTemp(t time.Time) float64 {
	hour := float64(t.Hour()) + float64(t.Minute())/60
	phase := (hour - 5) / 24 * 2 * math.Pi
	return s.cfg.OutdoorMeanTemp + s.cfg.OutdoorTempSwing*(-math.Cos(phase))
}

// heaterEnabled applies the schedule and scripted outages.
func (s *Simulator) heaterEnabled(t time.Time) bool {
	for _, iv := range s.cfg.Outages {
		if iv.Contains(t) {
			return false
		}
	}
	h := t.Hour()
	return h >= s.cfg.HeatingStartHour && h < s.cfg.HeatingEndHour
}

// boostActive reports whether a scripted heat boost covers t.
func (s *Simulator) boostActive(t time.Time) bool {
	for _, iv := range s.cfg.Boosts {
		if iv.Contains(t) {
			return true
		}
	}
	return false
}

// aerationActive reports whether a scripted open-window period covers t.
func (s *Simulator) aerationActive(t time.Time) bool {
	for _, iv := range s.cfg.Aerations {
		if iv.Contains(t) {
			return true
		}
	}
	return false
}

// Step advances the model by dt given the current occupant count and
// absolute simulated time, and returns the new state.
func (s *Simulator) Step(t time.Time, dt time.Duration, occupants int) State {
	h := dt.Hours()
	cfg := &s.cfg
	tout := s.OutdoorTemp(t)

	// Thermostat with hysteresis.
	boost := s.boostActive(t)
	if !s.heaterEnabled(t) && !boost {
		s.heaterOn = false
	} else if boost {
		s.heaterOn = true
	} else if s.state.Temp < cfg.Setpoint-cfg.Hysteresis {
		s.heaterOn = true
	} else if s.state.Temp > cfg.Setpoint+cfg.Hysteresis {
		s.heaterOn = false
	}

	heat := 0.0
	if s.heaterOn {
		heat = cfg.HeaterPower
		if boost {
			heat *= cfg.BoostFactor
		}
	}
	dT := (cfg.WallLeak*(tout-s.state.Temp) +
		heat +
		cfg.OccupantHeat*float64(occupants)) * h
	dT += cfg.NoiseTemp * math.Sqrt(h) * s.rng.NormFloat64()
	s.state.Temp += dT

	// Humidity: relax towards the (dry, heated) effective outdoor level,
	// with occupants adding moisture. Heating depresses relative humidity
	// (warm air holds more water), modelled via a temperature-dependent
	// target: hotter room → lower equilibrium RH.
	// Outdoor (absolute) moisture rides the same diurnal wave as the
	// temperature — daytime air carries more water — which couples indoor
	// humidity positively to temperature and to the working hours.
	hour := float64(t.Hour()) + float64(t.Minute())/60
	outdoorRH := cfg.OutdoorHumidity - cfg.OutdoorHumSwing*math.Cos((hour-5)/24*2*math.Pi)
	targetRH := outdoorRH - 0.8*(s.state.Temp-20)
	vent := cfg.VentExchange
	if s.aerationActive(t) {
		// Open windows: fast exchange, target is raw outdoor humidity,
		// and the occupants' moisture is swept outside.
		vent *= 5
		targetRH = outdoorRH
		occupants = 0
	}
	dH := (vent*(targetRH-s.state.Humidity) +
		cfg.OccupantMoisture*float64(occupants)) * h
	dH += cfg.NoiseHumidity * math.Sqrt(h) * s.rng.NormFloat64()
	s.state.Humidity += dH
	if s.state.Humidity < 5 {
		s.state.Humidity = 5
	}
	if s.state.Humidity > 95 {
		s.state.Humidity = 95
	}

	s.state.HeaterOn = s.heaterOn
	s.state.Outdoor = tout

	// What the caller sees is the *sensor reading*, not the physical
	// state: i.i.d. temperature noise and (optionally) humidity quantised
	// to whole percent, as the Nordic Thingy reports it.
	meas := s.state
	meas.Temp += cfg.SensorNoiseTemp * s.rng.NormFloat64()
	if cfg.QuantizeHumidity {
		meas.Humidity = math.Round(meas.Humidity)
	}
	return meas
}

// AbsoluteHumidity converts (temperature °C, relative humidity %) to an
// absolute humidity in g/m³ using the Magnus approximation for saturation
// vapour pressure. The CSI model uses this to couple the radio channel to
// the environment through the physically meaningful quantity.
func AbsoluteHumidity(tempC, relHum float64) float64 {
	// Magnus formula: saturation vapour pressure in hPa.
	es := 6.112 * math.Exp(17.62*tempC/(243.12+tempC))
	e := es * relHum / 100
	// Ideal gas: AH = e·100/(Rw·T) with Rw = 461.5 J/(kg·K), in g/m³.
	return 216.7 * e / (tempC + 273.15)
}
