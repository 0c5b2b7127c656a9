// Package fault is the seeded fault-injection channel: it corrupts a clean
// simulated capture the way a real Nexmon/RPi + Thingy-52 rig degrades in
// the field. The faults it models are the deployment failure modes the
// paper's "unconstrained environment" argument must survive:
//
//   - bursty frame loss — a two-state Gilbert–Elliott channel, the standard
//     model for WiFi interference bursts (frames vanish in runs, not i.i.d.);
//   - AGC gain resteps — the receiver's automatic gain control re-locks and
//     the whole amplitude vector jumps by a common factor for a while;
//   - per-subcarrier nulls — driver glitches zero a contiguous block of
//     subcarriers for a burst of frames;
//   - timestamp jitter — the capture stamps frames with scheduling noise;
//   - env-sensor faults — the BLE environment feed (temperature/humidity)
//     drops out entirely for stretches, or silently repeats stale readings.
//
// Everything is driven by one seeded RNG advanced in stream order, so a
// given (Config, record sequence) pair always produces the identical fault
// trace — the property internal/core's robustness sweep and its
// worker-count determinism test rely on. TraceHash folds every per-frame
// fault decision into a single value so two traces can be compared cheaply.
package fault

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/csi"
	"repro/internal/dataset"
	"repro/internal/obs"
)

// Frame is one record as delivered by the faulty capture pipeline.
type Frame struct {
	// Rec is the (possibly corrupted) record. When Dropped is set the CSI
	// amplitudes never arrived and Rec.CSI holds zeros.
	Rec dataset.Record
	// Index is the 0-based position in the stream.
	Index int
	// Dropped marks a WiFi frame lost in transit.
	Dropped bool
	// EnvOK reports whether the environment feed delivered a fresh reading
	// for this tick. When false, Rec.Temp/Rec.Humidity hold zeros.
	EnvOK bool
	// EnvStale marks a delivered-but-stale env reading (repeats the last
	// real one). EnvOK is true for stale readings — the consumer cannot
	// tell, which is exactly the hazard.
	EnvStale bool
	// Nulled is the number of subcarriers zeroed by a driver glitch.
	Nulled int
	// AGCGlitch marks frames inside an AGC re-lock transient.
	AGCGlitch bool
	// Truth carries the uncorrupted ground-truth record for scoring.
	Truth dataset.Record
}

// Config parametrises the fault channel. The zero value injects nothing —
// the channel becomes the identity and Frames pass through bit-unchanged.
type Config struct {
	Seed int64

	// Gilbert–Elliott bursty frame loss: a hidden good/bad state with
	// per-frame transition probabilities and state-conditional loss rates.
	PGoodToBad float64
	PBadToGood float64
	LossGood   float64
	LossBad    float64

	// AGC resteps: with probability AGCJumpProb per frame the gain jumps to
	// 2^±u, u uniform in (0, AGCJumpMaxLog2], then relaxes back towards 1
	// by AGCRecovery (fraction of the log-gain removed per frame).
	AGCJumpProb    float64
	AGCJumpMaxLog2 float64
	AGCRecovery    float64

	// Subcarrier nulls: with probability NullProb per frame a contiguous
	// block of 1..NullMaxWidth subcarriers is zeroed for a geometrically
	// distributed number of frames with mean NullMeanLen.
	NullProb     float64
	NullMaxWidth int
	NullMeanLen  float64

	// JitterStd is the standard deviation of Gaussian timestamp noise.
	JitterStd time.Duration

	// Env feed: with probability EnvOutageProb per frame the feed goes
	// down for a geometric number of frames with mean EnvOutageMeanLen;
	// while up, each reading is a stale repeat with probability
	// EnvStaleProb. EnvDead forces the feed down for the entire stream
	// (the "sensor unplugged" scenario).
	EnvOutageProb    float64
	EnvOutageMeanLen float64
	EnvStaleProb     float64
	EnvDead          bool

	// Observer receives injected-event counters (fault_* series). Nil
	// disables observability; the fault trace itself — which frames drop,
	// when the env feed dies — is a function of Seed and the record
	// sequence alone and is never affected by the Observer (TraceHash is
	// computed identically either way).
	Observer obs.Observer `json:"-"`
}

// Validate reports whether every probability lies in [0, 1] and every
// width, burst length and jitter is non-negative. The zero value (the
// identity channel) is valid. NewInjector cannot fail, so Validate is the
// pre-flight check for externally supplied profiles.
func (c Config) Validate() error {
	probs := [...]struct {
		name string
		v    float64
	}{
		{"PGoodToBad", c.PGoodToBad}, {"PBadToGood", c.PBadToGood},
		{"LossGood", c.LossGood}, {"LossBad", c.LossBad},
		{"AGCJumpProb", c.AGCJumpProb}, {"AGCRecovery", c.AGCRecovery},
		{"NullProb", c.NullProb}, {"EnvOutageProb", c.EnvOutageProb},
		{"EnvStaleProb", c.EnvStaleProb},
	}
	for _, p := range probs {
		if p.v < 0 || p.v > 1 || math.IsNaN(p.v) {
			return fmt.Errorf("fault: %s %g outside [0, 1]", p.name, p.v)
		}
	}
	if c.NullMaxWidth < 0 || c.NullMaxWidth > csi.NumSubcarriers {
		return fmt.Errorf("fault: NullMaxWidth %d outside [0, %d]", c.NullMaxWidth, csi.NumSubcarriers)
	}
	if c.AGCJumpMaxLog2 < 0 || c.NullMeanLen < 0 || c.EnvOutageMeanLen < 0 {
		return fmt.Errorf("fault: negative burst shape (agc log2 %g, null mean %g, outage mean %g)",
			c.AGCJumpMaxLog2, c.NullMeanLen, c.EnvOutageMeanLen)
	}
	if c.JitterStd < 0 {
		return fmt.Errorf("fault: negative JitterStd %v", c.JitterStd)
	}
	return nil
}

// DefaultProfile returns a moderately hostile field profile at intensity 1:
// ~20% bursty frame loss, occasional AGC resteps and null bursts, 5 ms
// timestamp jitter and intermittent env outages.
func DefaultProfile(seed int64) Config {
	return Config{
		Seed: seed,
		// Stationary bad-state fraction 0.08/(0.08+0.25) ≈ 0.24; with the
		// state-conditional loss rates below the long-run frame loss is
		// ≈ 0.24·0.75 + 0.76·0.01 ≈ 19%, in ~4-frame bursts.
		PGoodToBad:       0.08,
		PBadToGood:       0.25,
		LossGood:         0.01,
		LossBad:          0.75,
		AGCJumpProb:      0.002,
		AGCJumpMaxLog2:   1.5,
		AGCRecovery:      0.05,
		NullProb:         0.003,
		NullMaxWidth:     8,
		NullMeanLen:      20,
		JitterStd:        5 * time.Millisecond,
		EnvOutageProb:    0.001,
		EnvOutageMeanLen: 200,
		EnvStaleProb:     0.02,
	}
}

// Scale returns a copy of c with every fault probability (and the jitter
// magnitude) multiplied by intensity. Intensity 0 yields the identity
// channel; burst/outage *lengths* are shape parameters and stay fixed so
// intensity moves only how often faults start, not what a fault looks like.
func (c Config) Scale(intensity float64) Config {
	if intensity < 0 {
		intensity = 0
	}
	s := c
	s.PGoodToBad = clampProb(c.PGoodToBad * intensity)
	s.LossGood = clampProb(c.LossGood * intensity)
	s.LossBad = clampProb(c.LossBad * math.Min(intensity, 1))
	s.AGCJumpProb = clampProb(c.AGCJumpProb * intensity)
	s.NullProb = clampProb(c.NullProb * intensity)
	s.EnvOutageProb = clampProb(c.EnvOutageProb * intensity)
	s.EnvStaleProb = clampProb(c.EnvStaleProb * intensity)
	s.JitterStd = time.Duration(float64(c.JitterStd) * intensity)
	if intensity == 0 {
		s.EnvDead = false
	}
	return s
}

func clampProb(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// metrics are the injector's obs instruments; all nil (no-op) without an
// Observer in Config. Injectors sharing an Observer aggregate.
type metrics struct {
	frames     *obs.Counter
	dropped    *obs.Counter
	envMissing *obs.Counter
	envStale   *obs.Counter
	nullBursts *obs.Counter
	agcJumps   *obs.Counter
}

// newMetrics resolves the fault instrument set against o (nil → all-nil).
func newMetrics(o obs.Observer) metrics {
	if o == nil {
		return metrics{}
	}
	return metrics{
		frames:     o.Counter("fault_frames_total", "frames passed through the fault channel"),
		dropped:    o.Counter("fault_dropped_total", "frames lost to the Gilbert-Elliott channel"),
		envMissing: o.Counter("fault_env_missing_total", "frames with no env reading delivered"),
		envStale:   o.Counter("fault_env_stale_total", "frames with a stale env reading repeated"),
		nullBursts: o.Counter("fault_null_bursts_total", "subcarrier null bursts started"),
		agcJumps:   o.Counter("fault_agc_jumps_total", "AGC gain resteps injected"),
	}
}

// Injector applies the fault channel to a record stream. It must see the
// stream in order; it is not safe for concurrent use (give each goroutine
// its own Injector).
type Injector struct {
	cfg Config
	rng *rand.Rand
	m   metrics

	geBad     bool // Gilbert–Elliott channel state
	logGain   float64
	nullStart int // -1: no active null burst
	nullWidth int
	nullLeft  int
	envDown   int // frames of env outage remaining
	lastTemp  float64
	lastHum   float64
	haveEnv   bool

	frames int // frames passed through; also the next frame index
	hash   uint64
}

// NewInjector builds an Injector for the given configuration.
func NewInjector(cfg Config) *Injector {
	return &Injector{
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		m:         newMetrics(cfg.Observer),
		nullStart: -1,
		hash:      1469598103934665603, // FNV-64 offset basis
	}
}

// TraceHash returns an FNV-1a digest of every fault decision so far. Two
// injectors with the same configuration fed the same records produce the
// same hash — the cheap equality the determinism tests check.
func (in *Injector) TraceHash() uint64 { return in.hash }

func (in *Injector) fold(v uint64) {
	in.hash ^= v
	in.hash *= 1099511628211 // FNV-64 prime
}

// Apply passes one record through the fault channel, returning the frame a
// consumer would observe. The clean record is preserved in Frame.Truth.
func (in *Injector) Apply(r dataset.Record) Frame {
	cfg := &in.cfg
	f := Frame{Rec: r, Truth: r, Index: in.frames, EnvOK: true}
	in.frames++
	in.m.frames.Inc()

	// Gilbert–Elliott state transition, then state-conditional loss.
	if in.geBad {
		if cfg.PBadToGood > 0 && in.rng.Float64() < cfg.PBadToGood {
			in.geBad = false
		}
	} else if cfg.PGoodToBad > 0 && in.rng.Float64() < cfg.PGoodToBad {
		in.geBad = true
	}
	loss := cfg.LossGood
	if in.geBad {
		loss = cfg.LossBad
	}
	if loss > 0 && in.rng.Float64() < loss {
		f.Dropped = true
		f.Rec.CSI = [csi.NumSubcarriers]float64{}
		in.m.dropped.Inc()
	}

	if !f.Dropped {
		// AGC restep transient.
		if cfg.AGCJumpProb > 0 && in.rng.Float64() < cfg.AGCJumpProb {
			u := in.rng.Float64() * cfg.AGCJumpMaxLog2
			if in.rng.Intn(2) == 0 {
				u = -u
			}
			in.logGain = u
			in.m.agcJumps.Inc()
		}
		if in.logGain != 0 {
			g := math.Exp2(in.logGain)
			for k := range f.Rec.CSI {
				f.Rec.CSI[k] *= g
			}
			f.AGCGlitch = true
			in.logGain *= 1 - cfg.AGCRecovery
			if math.Abs(in.logGain) < 1e-3 {
				in.logGain = 0
			}
		}

		// Subcarrier null bursts.
		if in.nullLeft == 0 && cfg.NullProb > 0 && in.rng.Float64() < cfg.NullProb {
			w := 1
			if cfg.NullMaxWidth > 1 {
				w += in.rng.Intn(cfg.NullMaxWidth)
			}
			in.nullStart = in.rng.Intn(csi.NumSubcarriers)
			in.nullWidth = w
			in.nullLeft = 1 + geometric(in.rng, cfg.NullMeanLen)
			in.m.nullBursts.Inc()
		}
		if in.nullLeft > 0 {
			for k := 0; k < in.nullWidth; k++ {
				idx := in.nullStart + k
				if idx < csi.NumSubcarriers {
					f.Rec.CSI[idx] = 0
					f.Nulled++
				}
			}
			in.nullLeft--
		}
	}

	// Timestamp jitter.
	if cfg.JitterStd > 0 {
		f.Rec.Time = f.Rec.Time.Add(time.Duration(in.rng.NormFloat64() * float64(cfg.JitterStd)))
	}

	// Environment feed.
	switch {
	case cfg.EnvDead:
		f.EnvOK = false
	case in.envDown > 0:
		in.envDown--
		f.EnvOK = false
	case cfg.EnvOutageProb > 0 && in.rng.Float64() < cfg.EnvOutageProb:
		in.envDown = geometric(in.rng, cfg.EnvOutageMeanLen)
		f.EnvOK = false
	case cfg.EnvStaleProb > 0 && in.haveEnv && in.rng.Float64() < cfg.EnvStaleProb:
		f.EnvStale = true
		f.Rec.Temp = in.lastTemp
		f.Rec.Humidity = in.lastHum
		in.m.envStale.Inc()
	}
	if f.EnvOK && !f.EnvStale {
		in.lastTemp, in.lastHum = f.Rec.Temp, f.Rec.Humidity
		in.haveEnv = true
	}
	if !f.EnvOK {
		f.Rec.Temp, f.Rec.Humidity = 0, 0
		in.m.envMissing.Inc()
	}

	// Fold the frame's fault signature into the trace hash.
	var sig uint64
	if f.Dropped {
		sig |= 1
	}
	if !f.EnvOK {
		sig |= 2
	}
	if f.EnvStale {
		sig |= 4
	}
	if f.AGCGlitch {
		sig |= 8
	}
	sig |= uint64(f.Nulled) << 8
	sig |= uint64(f.Index) << 24
	in.fold(sig)

	return f
}

// geometric draws a geometric-ish burst length with the given mean (>=1).
func geometric(rng *rand.Rand, mean float64) int {
	if mean <= 1 {
		return 1
	}
	// Inverse-CDF of the geometric distribution with success prob 1/mean.
	u := rng.Float64()
	n := int(math.Ceil(math.Log(1-u) / math.Log(1-1/mean)))
	if n < 1 {
		n = 1
	}
	return n
}
