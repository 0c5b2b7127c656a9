package framelog

import (
	"math"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/fault"
	"repro/internal/stream"
)

// envPred is a deterministic predictor that reads both CSI and env, so the
// replay exercises every imputed field of the frame.
type envPred struct{}

func (envPred) PredictRecord(r *dataset.Record) (float64, int) {
	p := r.CSI[0] + r.Temp*1e-3 + r.Humidity*1e-4
	if p >= 0.5 {
		return p, 1
	}
	return p, 0
}

// TestGoldenRecoveryDeterminism is the end-to-end determinism contract in
// one place: a hostile fault channel (drops, AGC resteps, null bursts, env
// outages — fault.DefaultProfile) feeds a live runtime whose frames are
// logged as they are accepted; a fresh runtime replaying the log must
// reproduce every decision bit for bit, the log must hand back every frame
// bit-faithfully, and the injector's TraceHash must pin the fault sequence
// itself to the seed. Run under -race this also proves the log writer and
// reader share no hidden state.
func TestGoldenRecoveryDeterminism(t *testing.T) {
	gcfg := dataset.DefaultGenConfig(0.5, 7)
	gcfg.Duration = 30 * time.Minute
	ds, err := dataset.Generate(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	recs := ds.Records
	if len(recs) > 1500 {
		recs = recs[:1500]
	}

	for _, seed := range []int64{1, 17, 4242} {
		// The fault trace is a function of seed + records alone: two
		// injectors over the same inputs must agree on every decision.
		inj := fault.NewInjector(fault.DefaultProfile(seed))
		check := fault.NewInjector(fault.DefaultProfile(seed))
		for i := range recs {
			check.Apply(recs[i])
		}

		scfg := stream.Config{Primary: envPred{}, PrimaryUsesEnv: true}
		live, err := stream.New(scfg)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		w, rec, err := Open(Config{Dir: dir, Fsync: FsyncInterval, Interval: time.Millisecond}, "golden")
		if err != nil {
			t.Fatal(err)
		}
		if rec.Frames != 0 {
			t.Fatalf("fresh log reports %d recovered frames", rec.Frames)
		}

		frames := make([]fault.Frame, len(recs))
		decisions := make([]stream.Decision, len(recs))
		for i := range recs {
			frames[i] = inj.Apply(recs[i])
			if err := w.Append(&frames[i]); err != nil {
				t.Fatal(err)
			}
			decisions[i] = live.Process(frames[i])
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if got, want := inj.TraceHash(), check.TraceHash(); got != want {
			t.Fatalf("seed %d: fault trace not deterministic: %x != %x", seed, got, want)
		}

		// Recovery: a fresh runtime over the replayed log must land on the
		// identical decision sequence — Decision is pure data, so the
		// comparison is full-struct with P at the bit level.
		fresh, err := stream.New(scfg)
		if err != nil {
			t.Fatal(err)
		}
		i := 0
		n, err := Replay(dir, "golden", -1, func(f fault.Frame) error {
			if !framesEqual(f, frames[i]) {
				t.Fatalf("seed %d: replayed frame %d not bit-faithful", seed, i)
			}
			d := fresh.Process(f)
			want := decisions[i]
			if math.Float64bits(d.P) != math.Float64bits(want.P) || d.Pred != want.Pred ||
				d.State != want.State || d.Flipped != want.Flipped || d.Mode != want.Mode ||
				d.CSIImputed != want.CSIImputed || d.EnvImputed != want.EnvImputed {
				t.Fatalf("seed %d: decision %d diverged on replay:\n got %+v\nwant %+v", seed, i, d, want)
			}
			i++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if n != len(frames) {
			t.Fatalf("seed %d: replayed %d of %d frames", seed, n, len(frames))
		}
	}
}
