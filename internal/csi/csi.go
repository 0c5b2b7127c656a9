// Package csi models the WiFi channel the paper measures: the 64-subcarrier
// Channel State Information amplitude vector a Nexmon-patched Raspberry Pi
// extracts at 20 Hz from a 20 MHz 802.11 channel in the 2.4 GHz band
// (paper §II-A: d_H = 3.2·bandwidth = 64).
//
// The model is a frequency-selective multipath simulation:
//
//	H(f_k) = Σ_i g_i(T,H) · exp(-j·2π·f_k·τ_i) + n_k
//
// with one ray per propagation path. Paths comprise the line of sight,
// wall reflections, furniture scatterers (which move when occupants
// rearrange the room), and one scattered path per present person. Human
// bodies near the LoS additionally shadow it. Temperature and humidity
// enter through two physically motivated couplings:
//
//  1. absorption — the per-metre attenuation grows with absolute humidity
//     (a non-linear function of T and RH via the Magnus formula), and
//  2. thermal drift — path geometry and oscillator frequency drift with
//     temperature, rotating each ray's phase; through multipath
//     interference this produces a strongly non-linear amplitude response
//     across subcarriers.
//
// These two couplings are what let the paper's MLP recover temperature and
// humidity from CSI amplitudes non-linearly (Table V) while keeping the
// occupancy signature dominant (Figure 3).
package csi

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"

	"repro/internal/agents"
	"repro/internal/envsim"
	"repro/internal/tensor"
)

// NumSubcarriers is the CSI vector width for a 20 MHz channel (§II-A).
const NumSubcarriers = 64

// speedOfLight in m/s.
const speedOfLight = 299792458.0

// Config parametrises the channel model.
type Config struct {
	// CenterFreqHz is the carrier frequency (2.4 GHz band channel 1).
	CenterFreqHz float64
	// SubcarrierSpacingHz is 312.5 kHz for 20 MHz / 64 subcarriers.
	SubcarrierSpacingHz float64
	// TX and RX are the access-point and sniffer positions (paper: 2 m
	// apart at 1.4 m height; we work in 2-D plan view).
	TX, RX agents.Point
	// WallReflections is the number of static wall-reflection rays.
	WallReflections int
	// BodyReflectivity scales the per-person scattered ray amplitude.
	BodyReflectivity float64
	// ShadowDepth is the maximum LoS attenuation (fraction) a body causes
	// when standing directly on the TX–RX segment.
	ShadowDepth float64
	// ShadowWidth is the lateral decay scale (metres) of LoS shadowing.
	ShadowWidth float64
	// HumidityAbsorption is the per-metre amplitude attenuation per
	// (g/m³) of absolute humidity. Exaggerated relative to physical
	// 2.4 GHz values so the synthetic channel carries a usable
	// environment signature, as the paper's measurements did.
	HumidityAbsorption float64
	// ThermalPhaseCoeff converts temperature deviation (°C from 20) into
	// per-metre phase drift (radians).
	ThermalPhaseCoeff float64
	// MotionPhaseJitter is the phase random-walk step (radians/√s) for a
	// moving person's ray.
	MotionPhaseJitter float64
	// StillPhaseJitter is the residual phase jitter (radians/√s) of a
	// seated person — breathing and micro-motion keep a real body from
	// ever being a perfectly static scatterer.
	StillPhaseJitter float64
	// NoiseSigma is the complex AWGN standard deviation per subcarrier.
	NoiseSigma float64
	// AGCTarget is the mean amplitude the receiver gain control aims at.
	AGCTarget float64
	// AGCRate is the exponential AGC adaptation rate (1/s).
	AGCRate float64
	Seed    int64
}

// Validate reports whether the channel parameters are physical: every float
// field must be finite (NaN would pass any range check and turn the
// channel into NaN), frequencies, reflectivity, widths, jitters, noise and
// AGC settings non-negative, ShadowDepth a fraction in [0, 1] and
// WallReflections non-negative. Zero values are fine — NewSampler defaults
// them.
func (c Config) Validate() error {
	inf := math.Inf(1)
	for _, f := range []struct {
		name      string
		v, lo, hi float64
	}{
		{"CenterFreqHz", c.CenterFreqHz, 0, inf}, {"SubcarrierSpacingHz", c.SubcarrierSpacingHz, 0, inf},
		{"TX.X", c.TX.X, -inf, inf}, {"TX.Y", c.TX.Y, -inf, inf}, {"RX.X", c.RX.X, -inf, inf}, {"RX.Y", c.RX.Y, -inf, inf},
		{"BodyReflectivity", c.BodyReflectivity, 0, inf}, {"ShadowDepth", c.ShadowDepth, 0, 1},
		{"ShadowWidth", c.ShadowWidth, 0, inf}, {"HumidityAbsorption", c.HumidityAbsorption, 0, inf},
		{"ThermalPhaseCoeff", c.ThermalPhaseCoeff, -inf, inf}, {"MotionPhaseJitter", c.MotionPhaseJitter, 0, inf},
		{"StillPhaseJitter", c.StillPhaseJitter, 0, inf}, {"NoiseSigma", c.NoiseSigma, 0, inf},
		{"AGCTarget", c.AGCTarget, 0, inf}, {"AGCRate", c.AGCRate, 0, inf},
	} {
		if math.IsInf(f.v, 0) || !(f.v >= f.lo && f.v <= f.hi) {
			return fmt.Errorf("csi: %s = %g, want a finite value in [%g, %g]", f.name, f.v, f.lo, f.hi)
		}
	}
	if c.WallReflections < 0 {
		return fmt.Errorf("csi: negative WallReflections %d", c.WallReflections)
	}
	return nil
}

// DefaultConfig returns the paper-matched setup: 2.4 GHz, TX/RX 2 m apart in
// a 12×6 office.
func DefaultConfig() Config {
	return Config{
		CenterFreqHz:        2.412e9,
		SubcarrierSpacingHz: 312.5e3,
		TX:                  agents.Point{X: 5, Y: 3},
		RX:                  agents.Point{X: 7, Y: 3},
		WallReflections:     8,
		BodyReflectivity:    0.85,
		ShadowDepth:         0.4,
		ShadowWidth:         1.0,
		HumidityAbsorption:  0.004,
		ThermalPhaseCoeff:   0.002,
		MotionPhaseJitter:   1.2,
		StillPhaseJitter:    0.35,
		NoiseSigma:          0.03,
		AGCTarget:           0.5,
		AGCRate:             0.5,
		Seed:                1,
	}
}

// ray is one propagation path.
type ray struct {
	gain   complex128 // intrinsic complex gain (excl. environment effects)
	length float64    // path length in metres
}

// Sampler produces CSI amplitude vectors tick by tick.
type Sampler struct {
	cfg Config
	rng *rand.Rand

	staticRays []ray
	layoutVer  int // furniture layout the static rays were built for

	// per-person motion phase state (random walk).
	motionPhase map[int]float64

	agcGain float64

	// w[k] = −2π·f_k, the radian frequency of subcarrier k.
	w [NumSubcarriers]float64

	// scratch: this tick's ray table and the channel it sums to.
	rays   []tensor.Phasor
	re, im [NumSubcarriers]float64
}

// NewSampler builds a Sampler; zero config fields take defaults.
func NewSampler(cfg Config) *Sampler {
	def := DefaultConfig()
	if cfg.CenterFreqHz == 0 {
		cfg.CenterFreqHz = def.CenterFreqHz
	}
	if cfg.SubcarrierSpacingHz == 0 {
		cfg.SubcarrierSpacingHz = def.SubcarrierSpacingHz
	}
	if cfg.TX == (agents.Point{}) {
		cfg.TX = def.TX
	}
	if cfg.RX == (agents.Point{}) {
		cfg.RX = def.RX
	}
	if cfg.WallReflections == 0 {
		cfg.WallReflections = def.WallReflections
	}
	if cfg.BodyReflectivity == 0 {
		cfg.BodyReflectivity = def.BodyReflectivity
	}
	if cfg.ShadowDepth == 0 {
		cfg.ShadowDepth = def.ShadowDepth
	}
	if cfg.ShadowWidth == 0 {
		cfg.ShadowWidth = def.ShadowWidth
	}
	if cfg.HumidityAbsorption == 0 {
		cfg.HumidityAbsorption = def.HumidityAbsorption
	}
	if cfg.ThermalPhaseCoeff == 0 {
		cfg.ThermalPhaseCoeff = def.ThermalPhaseCoeff
	}
	if cfg.MotionPhaseJitter == 0 {
		cfg.MotionPhaseJitter = def.MotionPhaseJitter
	}
	if cfg.StillPhaseJitter == 0 {
		cfg.StillPhaseJitter = def.StillPhaseJitter
	}
	if cfg.NoiseSigma == 0 {
		cfg.NoiseSigma = def.NoiseSigma
	}
	if cfg.AGCTarget == 0 {
		cfg.AGCTarget = def.AGCTarget
	}
	if cfg.AGCRate == 0 {
		cfg.AGCRate = def.AGCRate
	}
	s := &Sampler{
		cfg:         cfg,
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		motionPhase: make(map[int]float64),
		agcGain:     1,
		layoutVer:   -1,
	}
	f0 := cfg.CenterFreqHz - float64(NumSubcarriers/2)*cfg.SubcarrierSpacingHz
	for k := range s.w {
		f := f0 + float64(k)*cfg.SubcarrierSpacingHz
		s.w[k] = -2 * math.Pi * f
	}
	return s
}

// rebuildStaticRays constructs LoS + wall + furniture rays for the current
// furniture layout. Wall reflections are fixed pseudo-random paths drawn
// deterministically from the seed; furniture rays are TX→item→RX bounces.
func (s *Sampler) rebuildStaticRays(furniture []agents.Point, layoutVer int) {
	s.staticRays = s.staticRays[:0]
	los := s.cfg.TX.Dist(s.cfg.RX)
	// Line of sight: unit reference amplitude.
	s.staticRays = append(s.staticRays, ray{gain: complex(1, 0), length: los})

	// Wall reflections: deterministic per (seed), independent of layout.
	wallRng := rand.New(rand.NewSource(s.cfg.Seed ^ 0x5DEECE66D))
	for i := 0; i < s.cfg.WallReflections; i++ {
		extra := 2 + wallRng.Float64()*18 // detour length 2–20 m
		amp := 0.45 * math.Exp(-extra/12)
		phase := wallRng.Float64() * 2 * math.Pi
		s.staticRays = append(s.staticRays, ray{
			gain:   cmplx.Rect(amp, phase),
			length: los + extra,
		})
	}

	// Furniture scatterers: geometry-dependent; moving an item changes
	// its path length and hence the whole interference pattern (the
	// paper's "furniture layout does change" stressor).
	for _, f := range furniture {
		d := s.cfg.TX.Dist(f) + f.Dist(s.cfg.RX)
		amp := 0.15 / math.Max(d, 1)
		// Deterministic phase from the geometry itself.
		s.staticRays = append(s.staticRays, ray{
			gain:   cmplx.Rect(amp, 0),
			length: d,
		})
	}
	s.layoutVer = layoutVer
}

// lineDistance returns the distance from p to the TX–RX segment.
func (s *Sampler) lineDistance(p agents.Point) float64 {
	a, b := s.cfg.TX, s.cfg.RX
	abx, aby := b.X-a.X, b.Y-a.Y
	apx, apy := p.X-a.X, p.Y-a.Y
	ab2 := abx*abx + aby*aby
	t := 0.0
	if ab2 > 0 {
		t = (apx*abx + apy*aby) / ab2
	}
	if t < 0 {
		t = 0
	}
	if t > 1 {
		t = 1
	}
	cx, cy := a.X+t*abx, a.Y+t*aby
	dx, dy := p.X-cx, p.Y-cy
	return math.Sqrt(dx*dx + dy*dy)
}

// Sample produces the 64 CSI amplitudes for the given occupant snapshot and
// environment state, advancing internal state by dt seconds. The paper uses
// only the amplitude information (§II-A); SampleComplex exposes the full
// complex channel for phase-aware extensions.
func (s *Sampler) Sample(snap *agents.Snapshot, env envsim.State, dtSeconds float64) [NumSubcarriers]float64 {
	rx := s.SampleComplex(snap, env, dtSeconds)
	var out [NumSubcarriers]float64
	for k, c := range rx {
		out[k] = cmplx.Abs(c)
	}
	return out
}

// SampleComplex produces the received complex channel vector H(f_k)
// (paper eq. 1: the real/imaginary decomposition carrying amplitude and
// phase), advancing internal state by dt seconds.
func (s *Sampler) SampleComplex(snap *agents.Snapshot, env envsim.State, dtSeconds float64) [NumSubcarriers]complex128 {
	if snap.LayoutVersion != s.layoutVer {
		s.rebuildStaticRays(snap.Furniture, snap.LayoutVersion)
	}
	cfg := &s.cfg

	// Environment couplings.
	ah := envsim.AbsoluteHumidity(env.Temp, env.Humidity) // g/m³, non-linear in (T, RH)
	absorb := cfg.HumidityAbsorption * ah                 // per metre
	thermal := cfg.ThermalPhaseCoeff * (env.Temp - 20)    // rad per metre

	// LoS shadowing by bodies.
	losAtten := 1.0
	for _, p := range snap.Present {
		d := s.lineDistance(p.Pos)
		losAtten *= 1 - cfg.ShadowDepth*math.Exp(-d*d/(2*cfg.ShadowWidth*cfg.ShadowWidth))
	}

	// Assemble the frequency response: one ray per path, summed over the
	// subcarriers by tensor.PhasorSumInto as G·att·e^{j·phase} with the
	// baseband-equivalent delay phase −2π·f·τ plus the thermal drift, which
	// scales with path length, plus any motion phase.
	ray := func(g complex128, length, extraPhase float64) tensor.Phasor {
		return tensor.Phasor{
			G:     g,
			Att:   math.Exp(-absorb * length),
			Tau:   length / speedOfLight,
			Base:  thermal * length,
			Extra: extraPhase,
		}
	}
	s.rays = s.rays[:0]
	for i, r := range s.staticRays {
		g := r.gain
		if i == 0 {
			g *= complex(losAtten, 0)
		}
		s.rays = append(s.rays, ray(g, r.length, 0))
	}

	// Scattered rays per present person, with a motion-dependent phase
	// random walk (moving bodies decorrelate the channel tick to tick;
	// seated bodies still breathe — StillPhaseJitter). A secondary,
	// longer bounce (floor/ceiling detour) enriches the body signature
	// across subcarriers the way a distributed scatterer would.
	for _, p := range snap.Present {
		d := cfg.TX.Dist(p.Pos) + p.Pos.Dist(cfg.RX)
		amp := cfg.BodyReflectivity / math.Max(d, 1)
		ph := s.motionPhase[p.ID]
		if p.Speed > 0 {
			ph += cfg.MotionPhaseJitter * math.Sqrt(dtSeconds) * s.rng.NormFloat64() * (1 + p.Speed)
		} else {
			ph += cfg.StillPhaseJitter * math.Sqrt(dtSeconds) * s.rng.NormFloat64()
		}
		s.motionPhase[p.ID] = ph
		s.rays = append(s.rays, ray(cmplx.Rect(amp, 0), d, ph), ray(cmplx.Rect(0.45*amp, 0), d+2.3, ph))
	}
	tensor.PhasorSumInto(s.re[:], s.im[:], s.w[:], s.rays)

	// Receiver: AWGN + slow AGC towards the target mean amplitude.
	var rx [NumSubcarriers]complex128
	var mean float64
	for k := 0; k < NumSubcarriers; k++ {
		re := s.re[k] + cfg.NoiseSigma*s.rng.NormFloat64()
		im := s.im[k] + cfg.NoiseSigma*s.rng.NormFloat64()
		rx[k] = complex(re, im)
		mean += math.Hypot(re, im)
	}
	mean /= NumSubcarriers
	if mean > 0 {
		want := cfg.AGCTarget / mean
		alpha := 1 - math.Exp(-cfg.AGCRate*dtSeconds)
		s.agcGain += (want - s.agcGain) * alpha
	}
	g := complex(s.agcGain, 0)
	for k := range rx {
		rx[k] *= g
	}
	return rx
}
