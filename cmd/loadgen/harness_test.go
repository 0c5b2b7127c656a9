package main

import (
	"bytes"
	"context"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/stream"
	"repro/pkg/occupancy"
)

// testFixture trains one small detector for the whole package: the gates'
// arithmetic does not care how good the model is, only that the server and
// the replay run the same one.
var testFixture = sync.OnceValues(func() (fixture, error) {
	gcfg := dataset.DefaultGenConfig(0.5, 11)
	gcfg.Duration = 2 * time.Hour
	day, err := dataset.Generate(gcfg)
	if err != nil {
		return fixture{}, err
	}
	dcfg := core.DefaultDetectorConfig()
	dcfg.Hidden = []int{16}
	dcfg.Train.Epochs = 1
	det, err := core.TrainDetector(day, dcfg)
	if err != nil {
		return fixture{}, err
	}
	var bundle bytes.Buffer
	if err := det.Save(&bundle); err != nil {
		return fixture{}, err
	}
	return fixture{bundle: bundle.Bytes(), recs: day.Records}, nil
})

// traceFixture is a feed, two model versions and a way to produce the
// decision trace a correct server would stream for any span list.
type traceFixture struct {
	run      *feedRun
	old, new span
}

func newTraceFixture(t *testing.T) traceFixture {
	t.Helper()
	fx, err := testFixture()
	if err != nil {
		t.Fatal(err)
	}
	oldDet, err := bundleDetector(fx.bundle)
	if err != nil {
		t.Fatal(err)
	}
	// A second version that decides differently: the same weights with the
	// output bias pushed up.
	newDet, err := bundleDetector(fx.bundle)
	if err != nil {
		t.Fatal(err)
	}
	params := newDet.Net.Params()
	params[len(params)-1].Data[0] += 0.75
	return traceFixture{
		run: &feedRun{id: "room-7", f: 3, recs: fx.recs},
		old: span{from: 0, det: oldDet, version: strings.Repeat("a", 64)},
		new: span{from: 0, det: newDet, version: strings.Repeat("b", 64)},
	}
}

// trace replays frames 0..n-1 independently of feedRun.verify and returns
// the events a server deciding with spans would stream.
func (tf traceFixture) trace(t *testing.T, n int, spans []span) []occupancy.Decision {
	t.Helper()
	pred := &switchPredictor{}
	rt, err := stream.New(stream.Config{Primary: pred, PrimaryUsesEnv: spans[0].det.Features != dataset.FeatCSI})
	if err != nil {
		t.Fatal(err)
	}
	events := make([]occupancy.Decision, n)
	for k := range events {
		cur := spans[0]
		for _, s := range spans {
			if s.from <= k {
				cur = s
			}
		}
		pred.cur = cur.det
		d := rt.Process(refFrame(tf.run.recs, tf.run.f, k))
		events[k] = occupancy.Decision{Seq: int64(k), P: d.P, Pred: d.Pred, State: d.State,
			Mode: d.Mode.String(), ModelVersion: cur.version}
	}
	return events
}

// from returns s starting at index k.
func from(k int, s span) span {
	s.from = k
	return s
}

// TestVerifyAcceptsCleanTraces: what a correct server streams passes — a
// whole run on one version, a run across a model switch, and a suffix that
// starts mid-feed (the post-recovery shape of the crash gate).
func TestVerifyAcceptsCleanTraces(t *testing.T) {
	tf := newTraceFixture(t)
	const n, half = 96, 48
	if err := tf.run.verify(tf.trace(t, n, []span{tf.old}), 0, n, []span{tf.old}); err != nil {
		t.Errorf("single version: %v", err)
	}
	swapped := []span{tf.old, from(half, tf.new)}
	events := tf.trace(t, n, swapped)
	if err := tf.run.verify(events, 0, n, swapped); err != nil {
		t.Errorf("across a switch: %v", err)
	}
	if err := tf.run.verify(events[half+7:], half+7, n-half-7, swapped); err != nil {
		t.Errorf("suffix: %v", err)
	}
	// The fixture is only a fixture if the two versions disagree somewhere.
	differ := false
	for k, ev := range tf.trace(t, n, []span{tf.old}) {
		if k >= half && math.Float64bits(ev.P) != math.Float64bits(events[k].P) {
			differ = true
		}
	}
	if !differ {
		t.Fatal("the two test versions decide identically; the switch cases below would prove nothing")
	}
}

// TestVerifyRejectsEveryCorruption: each way a served stream can be wrong
// must come back as an error naming the feed and the first bad index. A
// verifier that cannot fail is not a gate.
func TestVerifyRejectsEveryCorruption(t *testing.T) {
	tf := newTraceFixture(t)
	const n, half, at = 96, 48, 61
	swapped := []span{tf.old, from(half, tf.new)}
	cases := []struct {
		name      string
		served    []span // what the server "did"
		declared  []span // what the gate says it should have done
		corrupt   func(ev []occupancy.Decision) []occupancy.Decision
		wantIndex string
	}{
		{"one flipped mantissa bit in P", swapped, swapped, func(ev []occupancy.Decision) []occupancy.Decision {
			ev[at].P = math.Float64frombits(math.Float64bits(ev[at].P) ^ 1)
			return ev
		}, "decision 61"},
		{"a dropped event", swapped, swapped, func(ev []occupancy.Decision) []occupancy.Decision {
			return append(ev[:at], ev[at+1:]...)
		}, "decision 61"},
		{"a duplicated event", swapped, swapped, func(ev []occupancy.Decision) []occupancy.Decision {
			return append(ev[:at+1], ev[at:]...)
		}, "decision 62"},
		{"a short stream", swapped, swapped, func(ev []occupancy.Decision) []occupancy.Decision {
			return ev[:n-1]
		}, "decision 95"},
		{"a wrong Mode", swapped, swapped, func(ev []occupancy.Decision) []occupancy.Decision {
			ev[at].Mode = stream.ModeHeld.String()
			return ev
		}, "decision 61"},
		{"a wrong State", swapped, swapped, func(ev []occupancy.Decision) []occupancy.Decision {
			ev[at].State = 1 - ev[at].State
			return ev
		}, "decision 61"},
		{"a ModelVersion that was never active", swapped, swapped, func(ev []occupancy.Decision) []occupancy.Decision {
			ev[at].ModelVersion = strings.Repeat("c", 64)
			return ev
		}, "decision 61"},
		{"a switch one frame off the declared boundary", []span{tf.old, from(half+1, tf.new)}, swapped,
			func(ev []occupancy.Decision) []occupancy.Decision { return ev }, "decision 48"},
		{"a pinned feed tagged with the new version", []span{tf.old}, []span{tf.old}, func(ev []occupancy.Decision) []occupancy.Decision {
			ev[at].ModelVersion = tf.new.version
			return ev
		}, "decision 61"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			events := tc.corrupt(tf.trace(t, n, tc.served))
			err := tf.run.verify(events, 0, n, tc.declared)
			if err == nil {
				t.Fatal("verify accepted the corrupted trace")
			}
			if !strings.Contains(err.Error(), tf.run.id) || !strings.Contains(err.Error(), tc.wantIndex) {
				t.Fatalf("error %q does not name feed %q and %q", err, tf.run.id, tc.wantIndex)
			}
		})
	}
}

// TestWireGate runs the bare loadgen gate end to end on a toy fleet: an
// in-process server, the feed driver, the verifier.
func TestWireGate(t *testing.T) {
	fx, err := testFixture()
	if err != nil {
		t.Fatal(err)
	}
	if err := runWire(context.Background(), fx, 3, 100, ""); err != nil {
		t.Fatal(err)
	}
}

// TestClusterDrainGate runs the 3-node drain/hand-off gate on a toy fleet,
// draining whichever node owns feed 0 so the hand-off path always runs.
func TestClusterDrainGate(t *testing.T) {
	fx, err := testFixture()
	if err != nil {
		t.Fatal(err)
	}
	// Placement hashes node IDs, not addresses, so it is known before boot.
	m := occupancy.ShardMap{Epoch: 1}
	for _, id := range []string{"n0", "n1", "n2"} {
		m.Nodes = append(m.Nodes, occupancy.ClusterNode{ID: id, Addr: "http://" + id})
	}
	owner, ok := m.Owner("feed-000")
	if !ok {
		t.Fatal("no owner for feed-000")
	}
	if err := runCluster(context.Background(), fx, 4, 64, 3, owner.ID, ""); err != nil {
		t.Fatal(err)
	}
}
