package server

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/cpukit"
	"repro/internal/dataset"
	"repro/internal/drift"
	"repro/internal/framelog"
	"repro/internal/infer"
	"repro/internal/stream"
)

// The goldens below pin served bits to constants, where every other
// bit-identity gate compares two live computations — a refactor that moves
// both sides of such a gate passes it. A change to either constant is a
// change to what the service computes or stores: say which, and why, where
// it lands.

// TestServedDecisionsGolden runs the degrading corpus through a
// registry-backed feed at each precision and hashes, FNV-1a, every published
// decision's P bits, Pred, State, Mode and version tag. f64 is exact under
// every kernel, so its keys hold one constant; the f32 and int8 kernels
// differ in their bits, so generic and AVX2 each have their own. The avx512
// tier serves f32 and int8 through the AVX2 code, so it must reproduce the
// avx2 hashes.
func TestServedDecisionsGolden(t *testing.T) {
	want := map[string]uint64{
		"f64/generic":  0xf83e1520b7d494e1,
		"f64/avx2":     0xf83e1520b7d494e1,
		"f32/generic":  0xfc4d1ab90d4a3311,
		"f32/avx2":     0x8a398e6a6e46f7cc,
		"int8/generic": 0x2361d6c24ed5c47e,
		"int8/avx2":    0x304144c24dfa5b0f,
	}
	for _, prec := range []string{"f64", "f32", "int8"} {
		want[prec+"/avx512"] = want[prec+"/avx2"]
	}
	for _, prec := range []string{"f64", "f32", "int8"} {
		primary := randomEngine(t, dataset.FeatCSIEnv, prec, 1)
		reg := infer.NewRegistry(nil)
		v, _, err := reg.Install([]byte("golden primary"), func([]byte) (any, error) { return primary, nil })
		if err != nil {
			t.Fatal(err)
		}
		if _, err := reg.Activate(v.ID()); err != nil {
			t.Fatal(err)
		}
		s, err := New(Config{
			Primary: primary, Fallback: randomEngine(t, dataset.FeatCSI, prec, 2), PrimaryUsesEnv: true,
			MaxHoldGap: 2, WatchdogFrames: 5, SmootherNeed: 2,
			StreamBuffer: 64, Models: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		f, err := s.newFeed("golden")
		if err != nil {
			t.Fatal(err)
		}
		sub, _ := f.subscribe(true)
		frames := degradingFrames()
		if res, err := f.ingest(context.Background(), frames); err != nil || res.accepted != len(frames) {
			t.Fatalf("%s: ingest accepted %d of %d: %v", prec, res.accepted, len(frames), err)
		}
		h := fnv.New64a()
		word := func(w uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, w)) }
		tagged := 0
		for range frames {
			ev := <-sub.ch
			word(math.Float64bits(ev.P))
			word(uint64(ev.Pred))
			word(uint64(ev.State))
			h.Write([]byte(ev.Mode + "\x00" + ev.ModelVersion + "\x00"))
			if ev.ModelVersion == v.ID() {
				tagged++
			}
		}
		if tagged == 0 {
			t.Fatalf("%s: no decision carries the version tag; the hash would not cover it", prec)
		}
		key := prec + "/" + cpukit.Active().String()
		if got := h.Sum64(); got != want[key] {
			t.Errorf("%s: served-decisions hash %#016x, want %#016x", key, got, want[key])
		}
	}
}

// TestSnapshotBytesGolden hashes the snapshot file a durable feed with a
// drift detector writes when it closes after the degrading corpus. The
// snapshot crosses nodes on a hand-off, so a codec change must show here —
// and ship as a version bump — rather than as every node silently falling
// back to a full replay. The primary is the f64 engine behind a wrapper that
// hides its precision and kernel, so the scorer stamp, and with it the file,
// is the same under both kernels.
func TestSnapshotBytesGolden(t *testing.T) {
	const want = uint64(0x59f6ae631ba49075)
	dir := t.TempDir()
	s, err := New(Config{
		Primary:  struct{ stream.Predictor }{randomEngine(t, dataset.FeatCSIEnv, "f64", 1)},
		Fallback: struct{ stream.Predictor }{randomEngine(t, dataset.FeatCSI, "f64", 2)}, PrimaryUsesEnv: true,
		MaxHoldGap: 2, WatchdogFrames: 5, SmootherNeed: 2,
		Drift:      drift.Config{Baseline: 8, Window: 4, Bins: 4},
		Durability: framelog.Config{Dir: dir, Fsync: framelog.FsyncOff},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	f, _, err := s.register("golden", nil)
	if err != nil {
		t.Fatal(err)
	}
	frames := degradingFrames()
	if res, err := f.ingest(context.Background(), frames); err != nil || res.accepted != len(frames) {
		t.Fatalf("ingest accepted %d of %d: %v", res.accepted, len(frames), err)
	}
	f.close(time.Time{})
	raw, err := os.ReadFile(filepath.Join(dir, "golden", "snapshot"))
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(raw)
	if got := h.Sum64(); got != want {
		t.Fatalf("snapshot-bytes hash %#016x (%d bytes), want %#016x", got, len(raw), want)
	}
}
