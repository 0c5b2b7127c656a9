package server_test

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/framelog"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/stream"
)

// durableFrames builds n frames whose first subcarrier walks a deterministic
// pattern crossing the 0.5 decision threshold, so recovery has real state
// transitions to reproduce, not a flat line.
func durableFrames(n, from int) []server.FrameJSON {
	frames := mkFrames(n, 0)
	for i := range frames {
		k := from + i
		frames[i].CSI[0] = float64(k%7) / 7 // 0, .14, .29, .43, .57, .71, .86
		frames[i].Time = frames[i].Time.Add(time.Duration(from) * 50 * time.Millisecond)
		frames[i].Temp = 20 + float64(k%5)
		frames[i].Humidity = 40 + float64(k%3)
	}
	return frames
}

// streamEvents subscribes to a feed's full decision stream and returns a
// channel yielding its events plus a cancel func.
func streamEvents(t *testing.T, base, id string) (<-chan server.Event, func()) {
	t.Helper()
	resp, err := http.Get(base + "/v1/feeds/" + id + "/stream?all=1")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("stream subscribe: %d", resp.StatusCode)
	}
	ch := make(chan server.Event, 1024)
	go func() {
		defer close(ch)
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var ev server.Event
			if json.Unmarshal(sc.Bytes(), &ev) == nil {
				ch <- ev
			}
		}
	}()
	return ch, func() { resp.Body.Close() }
}

// collect reads n events or fails after a deadline.
func collect(t *testing.T, ch <-chan server.Event, n int) []server.Event {
	t.Helper()
	evs := make([]server.Event, 0, n)
	deadline := time.After(10 * time.Second)
	for len(evs) < n {
		select {
		case ev, ok := <-ch:
			if !ok {
				t.Fatalf("stream ended after %d of %d events", len(evs), n)
			}
			evs = append(evs, ev)
		case <-deadline:
			t.Fatalf("timed out with %d of %d events", len(evs), n)
		}
	}
	return evs
}

// sameEvent compares decisions at the bit level: replay is only a recovery
// if P carries the identical float bits, not merely a close value.
func sameEvent(a, b server.Event) bool {
	return a.Seq == b.Seq && a.Time.Equal(b.Time) &&
		math.Float64bits(a.P) == math.Float64bits(b.P) &&
		a.Pred == b.Pred && a.State == b.State && a.Flipped == b.Flipped &&
		a.Mode == b.Mode && a.CSIImputed == b.CSIImputed && a.EnvImputed == b.EnvImputed
}

// recoveryPaths are the two ways a feed comes back: restoring the snapshot
// its previous life wrote, or — with the snapshot deleted — replaying its
// whole log through a fresh runtime.
var recoveryPaths = []recoveryPath{{"snapshot", true}, {"full-replay", false}}

type recoveryPath struct {
	name     string
	snapshot bool
}

// restores is how many of n recovered frames this path restores rather than
// replays.
func (p recoveryPath) restores(n int64) int64 {
	if p.snapshot {
		return n
	}
	return 0
}

// dropSnapshot deletes a feed's snapshot (framelog keeps it beside the
// segments), forcing the next recovery to replay the whole log.
func dropSnapshot(t *testing.T, dir, id string) {
	t.Helper()
	if err := os.Remove(filepath.Join(dir, id, "snapshot")); err != nil {
		t.Fatal(err)
	}
}

// copyDir copies a log directory tree, as a crash would find it.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), raw, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// recoveryCounts reads what recovery reports: frames whose state it rebuilt,
// and how many of those a snapshot covered rather than a replay.
func recoveryCounts(reg *obs.Registry) (recovered, restored int64) {
	return reg.Counter("server_frames_recovered_total", "").Value(), reg.Counter("server_frames_restored_total", "").Value()
}

// TestRecoveryBitIdenticalDecisions kills a durable server mid-stream (by
// closing it with frames accepted) and checks the successor recovers to the
// exact decision state — then keeps producing decisions bit-identical to an
// uninterrupted reference server fed the same frames — whether it restores
// the snapshot the close wrote or replays the whole log.
func TestRecoveryBitIdenticalDecisions(t *testing.T) {
	const half = 20
	all := durableFrames(2*half, 0)

	// Reference: one uninterrupted life over all frames.
	_, rts, _ := newTestServer(t, nil)
	if code, _, _ := doReq(t, http.MethodPut, rts.URL+"/v1/feeds/room", nil); code != http.StatusCreated {
		t.Fatalf("reference register failed")
	}
	rch, rcancel := streamEvents(t, rts.URL, "room")
	defer rcancel()
	if code, ir, _ := ingest(t, rts.URL, "room", all); code != http.StatusAccepted || ir.Accepted != 2*half {
		t.Fatalf("reference ingest: code=%d accepted=%d", code, ir.Accepted)
	}
	want := collect(t, rch, 2*half)

	for _, path := range recoveryPaths {
		t.Run(path.name, func(t *testing.T) {
			// Life A: durable server takes the first half, then dies abruptly.
			dir := t.TempDir()
			durable := func(c *server.Config) {
				c.Durability = framelog.Config{Dir: dir, Fsync: framelog.FsyncOff}
			}
			srvA, tsA, _ := newTestServer(t, durable)
			if code, _, _ := doReq(t, http.MethodPut, tsA.URL+"/v1/feeds/room", nil); code != http.StatusCreated {
				t.Fatalf("register failed")
			}
			if code, ir, _ := ingest(t, tsA.URL, "room", all[:half]); code != http.StatusAccepted || ir.Accepted != half {
				t.Fatalf("life A ingest: code=%d accepted=%d", code, ir.Accepted)
			}
			tsA.Close()
			srvA.Close()
			if !path.snapshot {
				dropSnapshot(t, dir, "room")
			}

			// Life B: recovery must cover all acknowledged frames and land on
			// the reference's decision for frame half-1, bit for bit — and New
			// returns only once it has, so the first read already sees it.
			srvB, tsB, regB := newTestServer(t, durable)
			if srvB.FeedCount() != 1 {
				t.Fatalf("recovered %d feeds, want 1", srvB.FeedCount())
			}
			recovered, restored := recoveryCounts(regB)
			if recovered != half || restored != path.restores(half) {
				t.Fatalf("New returned with %d frames recovered, %d of them restored; want %d and %d", recovered, restored, half, path.restores(half))
			}
			code, body, _ := doReq(t, http.MethodGet, tsB.URL+"/v1/feeds/room/occupancy", nil)
			if code != http.StatusOK {
				t.Fatalf("occupancy after recovery: %d", code)
			}
			var got server.Event
			if err := json.Unmarshal(body, &got); err != nil {
				t.Fatal(err)
			}
			if !sameEvent(got, want[half-1]) {
				t.Fatalf("recovered decision diverged:\n got %+v\nwant %+v", got, want[half-1])
			}

			// The second half must continue bit-identically: same indices, same
			// float bits, as if the crash never happened.
			bch, bcancel := streamEvents(t, tsB.URL, "room")
			defer bcancel()
			if code, ir, _ := ingest(t, tsB.URL, "room", all[half:]); code != http.StatusAccepted || ir.Accepted != half {
				t.Fatalf("life B ingest: code=%d accepted=%d", code, ir.Accepted)
			}
			for i, ev := range collect(t, bch, half) {
				if !sameEvent(ev, want[half+i]) {
					t.Fatalf("post-recovery event %d diverged:\n got %+v\nwant %+v", i, ev, want[half+i])
				}
			}
		})
	}
}

// TestReRegisterAfterCloseRecovers drives the same-process variant of
// recovery: a closed feed re-registers and must resume from its logged
// history with continuing indices. Recovery runs inside the PUT, so its
// answer already reflects the recovered decisions.
func TestReRegisterAfterCloseRecovers(t *testing.T) {
	for _, path := range recoveryPaths {
		t.Run(path.name, func(t *testing.T) {
			dir := t.TempDir()
			_, ts, reg := newTestServer(t, func(c *server.Config) {
				c.Durability = framelog.Config{Dir: dir, Fsync: framelog.FsyncInterval, Interval: 5 * time.Millisecond}
			})
			doReq(t, http.MethodPut, ts.URL+"/v1/feeds/room", nil)
			if code, _, _ := ingest(t, ts.URL, "room", durableFrames(8, 0)); code != http.StatusAccepted {
				t.Fatalf("ingest: %d", code)
			}
			doReq(t, http.MethodDelete, ts.URL+"/v1/feeds/room", nil)
			if code, _, _ := doReq(t, http.MethodGet, ts.URL+"/v1/feeds/room/occupancy", nil); code != http.StatusNotFound {
				t.Fatalf("occupancy after the delete returned: %d, want 404", code)
			}
			if !path.snapshot {
				dropSnapshot(t, dir, "room")
			}

			code, body, _ := doReq(t, http.MethodPut, ts.URL+"/v1/feeds/room", nil)
			var fi server.FeedInfo
			if err := json.Unmarshal(body, &fi); code != http.StatusCreated || err != nil || fi.Decisions != 8 {
				t.Fatalf("re-register: %d %s, want 201 with 8 decisions", code, body)
			}
			// Only a replay decides anything: the books balance either way.
			recovered, restored := recoveryCounts(reg)
			ingested := reg.Counter("server_frames_ingested_total", "").Value()
			decisions := reg.Counter("server_decisions_total", "").Value()
			if recovered != 8 || restored != path.restores(8) || decisions != ingested+recovered-restored {
				t.Fatalf("re-register: recovered %d, restored %d, decisions %d, ingested %d", recovered, restored, decisions, ingested)
			}
			// New frames continue the logged index sequence.
			if code, _, _ := ingest(t, ts.URL, "room", durableFrames(1, 8)); code != http.StatusAccepted {
				t.Fatalf("post-recovery ingest: %d", code)
			}
			code, body, _ = doReq(t, http.MethodGet, ts.URL+"/v1/feeds/room/occupancy", nil)
			var ev server.Event
			if err := json.Unmarshal(body, &ev); code != http.StatusOK || err != nil || ev.Seq != 8 {
				t.Fatalf("continued decision: %d %s, want seq 8", code, body)
			}
		})
	}
}

// TestTeardownAccountingAndDurableDrops: Close with a batch in flight. The
// batch holds the feed lock inside its first prediction when Close arrives;
// Close waits behind it, so the batch is acknowledged whole, every frame of
// it was scored before Close returned, the books balance with nothing
// dropped —
//
//	ingested == decisions
//
// — and a successor recovers every acknowledged frame, from the snapshot the
// close wrote or, without it, by replaying the log.
func TestTeardownAccountingAndDurableDrops(t *testing.T) {
	const batch = 33
	dir := t.TempDir()
	g := newGatePred()
	open := g.shut()
	srv, ts, reg := newTestServer(t, func(c *server.Config) {
		c.Primary = g
		c.Durability = framelog.Config{Dir: dir, Fsync: framelog.FsyncOff}
	})
	t.Cleanup(open)
	doReq(t, http.MethodPut, ts.URL+"/v1/feeds/room", nil)

	acked := make(chan int, 1)
	go func() {
		code, ir, _ := ingest(t, ts.URL, "room", durableFrames(batch, 0))
		if code != http.StatusAccepted {
			ir.Accepted = -code
		}
		acked <- ir.Accepted
	}()
	<-g.entered
	closed := make(chan int, 1)
	go func() { srv.Close(); closed <- len(g.order()) }()
	cl := newClient(t, ts.URL)
	waitFor(t, 5*time.Second, "drain begins", func() bool { return cl.Ready(context.Background()) != nil })
	open()
	if n := <-acked; n != batch {
		t.Fatalf("in-flight batch: accepted %d (negative: status), want %d", n, batch)
	}
	select {
	case scored := <-closed:
		if scored != batch {
			t.Fatalf("Close returned with %d of the in-flight batch's %d frames scored", scored, batch)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server close wedged")
	}

	ingested := reg.Counter("server_frames_ingested_total", "").Value()
	decisions := reg.Counter("server_decisions_total", "").Value()
	if ingested != batch || decisions != ingested {
		t.Fatalf("books do not balance: ingested=%d decisions=%d, want both %d", ingested, decisions, batch)
	}
	for _, m := range reg.Snapshot().Metrics {
		if strings.Contains(m.Name, "teardown") {
			t.Fatalf("series %s is still exposed", m.Name)
		}
	}

	// Every acknowledged frame recovers in the next life, before New returns.
	for _, path := range recoveryPaths {
		t.Run(path.name, func(t *testing.T) {
			next := copyDir(t, dir)
			if !path.snapshot {
				dropSnapshot(t, next, "room")
			}
			_, _, reg2 := newTestServer(t, func(c *server.Config) {
				c.Durability = framelog.Config{Dir: next, Fsync: framelog.FsyncOff}
			})
			recovered, restored := recoveryCounts(reg2)
			decisions := reg2.Counter("server_decisions_total", "").Value()
			if recovered != batch || restored != path.restores(batch) || decisions != recovered-restored {
				t.Fatalf("successor recovered %d frames (%d restored, %d decided), want %d", recovered, restored, decisions, batch)
			}
		})
	}
}

// TestDurabilityRejectsTraversalFeedIDs pins the feed-id validation against
// names that would navigate the log directory tree.
func TestDurabilityRejectsTraversalFeedIDs(t *testing.T) {
	_, ts, _ := newTestServer(t, func(c *server.Config) {
		c.Durability = framelog.Config{Dir: t.TempDir(), Fsync: framelog.FsyncOff}
	})
	for _, id := range []string{".", ".."} {
		code, _, _ := doReq(t, http.MethodPut, ts.URL+"/v1/feeds/"+id, nil)
		// "." and ".." collapse in URL path cleaning to a redirect or the
		// list route — any outcome but a successful registration is fine.
		if code == http.StatusCreated {
			t.Fatalf("feed id %q registered", id)
		}
	}
}

// TestRecoveryReplaySurvivesRetentionRotation: a feed recovering under a
// segment-retention cap is hit by a burst of live ingest big enough to
// rotate the log well past the cap while its replay is still parked on the
// first recovered frame. The replay holds the feed lock, so the burst waits,
// lands after the recovered frames with continuing indices, and only then
// rotates — no segment is retired under the replay, and the cap is enforced
// afterwards. The snapshot the close wrote is deleted: restoring it would
// leave nothing to replay, and so nothing for the burst to wait behind.
func TestRecoveryReplaySurvivesRetentionRotation(t *testing.T) {
	dir := t.TempDir()
	// 4 records per segment (8-byte segment header + 565-byte records),
	// keep 2 segments.
	small := framelog.Config{
		Dir: dir, Fsync: framelog.FsyncOff,
		SegmentMaxBytes: 8 + 4*565, MaxSegments: 2,
	}
	g := newGatePred()
	_, ts, reg := newTestServer(t, func(c *server.Config) {
		c.Durability = small
		c.Primary = g
	})

	// First life of the feed: log 24 frames; the cap retains the last two
	// segments (frames 16..23), which is what a re-register must replay.
	doReq(t, http.MethodPut, ts.URL+"/v1/feeds/room", nil)
	if code, ir, _ := ingest(t, ts.URL, "room", durableFrames(24, 0)); code != http.StatusAccepted || ir.Accepted != 24 {
		t.Fatalf("first-life ingest: code=%d accepted=%d", code, ir.Accepted)
	}
	doReq(t, http.MethodDelete, ts.URL+"/v1/feeds/room", nil)
	dropSnapshot(t, dir, "room")
	firstLife := len(g.order())

	// Second life: park the replay on its first prediction, issue the burst
	// behind it, then let both through.
	open := g.shut()
	t.Cleanup(open)
	registered := make(chan int, 1)
	go func() {
		code, _, _ := doReq(t, http.MethodPut, ts.URL+"/v1/feeds/room", nil)
		registered <- code
	}()
	<-g.entered
	burst := make(chan int, 1)
	go func() {
		code, ir, _ := ingest(t, ts.URL, "room", durableFrames(24, 24))
		if code != http.StatusAccepted {
			ir.Accepted = -code
		}
		burst <- ir.Accepted
	}()
	open()
	if code := <-registered; code != http.StatusCreated {
		t.Fatalf("re-register: %d", code)
	}
	if n := <-burst; n != 24 {
		t.Fatalf("burst behind the replay: accepted %d (negative: status), want 24", n)
	}

	// The scoring order is the proof: the eight recovered frames, then the
	// burst, each in index order — the burst never overtook the replay.
	order := g.order()[firstLife:]
	if len(order) != 8+24 {
		t.Fatalf("second life scored %d frames, want 8 recovered + 24 burst", len(order))
	}
	base := durableFrames(1, 0)[0].Time
	for i, at := range order {
		if k := 16 + i; !at.Equal(base.Add(time.Duration(k) * 50 * time.Millisecond)) {
			t.Fatalf("scoring position %d holds the frame stamped %v, want frame %d", i, at, k)
		}
	}

	if got := reg.Counter("server_frames_recovered_total", "").Value(); got != 8 {
		t.Fatalf("replayed %d frames, want the 8 retained ones", got)
	}
	code, body, _ := doReq(t, http.MethodGet, ts.URL+"/v1/feeds/room/occupancy", nil)
	var ev server.Event
	if err := json.Unmarshal(body, &ev); code != http.StatusOK || err != nil || ev.Seq != 47 {
		t.Fatalf("final decision: %d %s, want seq 47", code, body)
	}
	segs, err := os.ReadDir(filepath.Join(dir, "room"))
	if err != nil {
		t.Fatal(err)
	}
	kept := 0
	for _, e := range segs {
		if strings.HasSuffix(e.Name(), ".flog") {
			kept++
		}
	}
	if kept > small.MaxSegments {
		t.Fatalf("retention cap not enforced after the replay: %d segments, cap %d", kept, small.MaxSegments)
	}
}

// TestRecoveryAcrossRetentionMatchesFullHistory: a feed whose log rotated
// past its retention cap recovers the decision state of its whole history,
// not of the retained suffix — after a clean close from the snapshot the
// close wrote, after a crash (the log directory as it stood before the
// close) from the snapshot the last seal wrote plus the frames logged since.
// The trace makes the retired prefix matter: a plateau the smoother latches
// on, then flicker it must ride out, an env outage that imputes, degrades and
// recovers, and CSI gaps — so a runtime rebuilt from the retained frames
// alone announces the other state on every later frame.
func TestRecoveryAcrossRetentionMatchesFullHistory(t *testing.T) {
	const cut, total = 40, 60
	no := false
	frames := durableFrames(total, 0)
	for i := range frames {
		frames[i].CSI[0] = 0.9
		if i >= 12 && i%2 == 0 {
			frames[i].CSI[0] = 0.2
		}
		if i >= 14 && i < 25 {
			frames[i].EnvOK = &no
		}
		frames[i].Dropped = i == 5 || i >= 8 && i <= 10
	}
	runtime := func(c *server.Config) {
		c.Fallback = ampPred{}
		c.PrimaryUsesEnv = true
		c.MaxHoldGap, c.WatchdogFrames, c.SmootherNeed = 2, 5, 3
	}
	durable := func(dir string) func(*server.Config) {
		return func(c *server.Config) {
			runtime(c)
			// 6 records per segment, keep 2: 40 frames retain only 30..39.
			c.Durability = framelog.Config{Dir: dir, Fsync: framelog.FsyncOff, SegmentMaxBytes: 8 + 6*565, MaxSegments: 2}
		}
	}

	// Reference: one uninterrupted life over the full history.
	_, rts, _ := newTestServer(t, runtime)
	doReq(t, http.MethodPut, rts.URL+"/v1/feeds/room", nil)
	rch, rcancel := streamEvents(t, rts.URL, "room")
	defer rcancel()
	if code, ir, _ := ingest(t, rts.URL, "room", frames); code != http.StatusAccepted || ir.Accepted != total {
		t.Fatalf("reference ingest: code=%d accepted=%d", code, ir.Accepted)
	}
	want := collect(t, rch, total)

	// The first life logs the first cut frames one request each, so the last
	// seal (frame 36 opened segment 6) is three frames behind the end.
	dir := t.TempDir()
	_, ts, _ := newTestServer(t, durable(dir))
	doReq(t, http.MethodPut, ts.URL+"/v1/feeds/room", nil)
	for k := 0; k < cut; k++ {
		if code, _, _ := ingest(t, ts.URL, "room", frames[k:k+1]); code != http.StatusAccepted {
			t.Fatalf("first-life ingest of frame %d: %d", k, code)
		}
	}
	crashed := copyDir(t, dir)
	doReq(t, http.MethodDelete, ts.URL+"/v1/feeds/room", nil)
	if _, err := os.Stat(filepath.Join(dir, "room", "00000000.flog")); !os.IsNotExist(err) {
		t.Fatalf("segment 0 was not retired (stat: %v)", err)
	}

	for _, life := range []struct {
		name     string
		dir      string
		replayed int64
	}{{"clean close", dir, 0}, {"crash", crashed, cut - 37}} {
		t.Run(life.name, func(t *testing.T) {
			_, ts, reg := newTestServer(t, durable(life.dir))
			code, body, _ := doReq(t, http.MethodGet, ts.URL+"/v1/feeds/room/occupancy", nil)
			var got server.Event
			if err := json.Unmarshal(body, &got); code != http.StatusOK || err != nil || !sameEvent(got, want[cut-1]) {
				t.Fatalf("recovered decision: %d %s, want %+v", code, body, want[cut-1])
			}
			ch, cancel := streamEvents(t, ts.URL, "room")
			defer cancel()
			if code, ir, _ := ingest(t, ts.URL, "room", frames[cut:]); code != http.StatusAccepted || ir.Accepted != total-cut {
				t.Fatalf("post-recovery ingest: code=%d accepted=%d", code, ir.Accepted)
			}
			for i, ev := range collect(t, ch, total-cut) {
				if !sameEvent(ev, want[cut+i]) {
					t.Fatalf("post-recovery decision %d diverged from the full history:\n got %+v\nwant %+v", cut+i, ev, want[cut+i])
				}
			}
			if recovered, restored := recoveryCounts(reg); recovered != cut || recovered-restored != life.replayed {
				t.Fatalf("recovered %d frames, %d restored; want %d with %d replayed", recovered, restored, cut, life.replayed)
			}
		})
	}
}

// TestCorruptLogFailsRecovery: recovery reads every record before it trusts
// the log, so a corrupt record in a sealed segment fails the re-registration
// (500, ErrCorrupt's text in the envelope) and the next start (ErrCorrupt in
// New's chain) — also when the snapshot covers that segment and nothing
// there would have been replayed. The feed is off the table and unreadable
// either way, and the log is left as found for the operator. A full replay
// decides frames in the pass that validates them, so it has already fed the
// runtime the frames ahead of the fault; none of that may be served.
func TestCorruptLogFailsRecovery(t *testing.T) {
	for _, path := range recoveryPaths {
		t.Run(path.name, func(t *testing.T) {
			dir := t.TempDir()
			durable := func(c *server.Config) {
				// 4 records per segment, so 12 frames seal two segments.
				c.Durability = framelog.Config{Dir: dir, Fsync: framelog.FsyncOff, SegmentMaxBytes: 8 + 4*565}
			}
			_, ts, reg := newTestServer(t, durable)
			doReq(t, http.MethodPut, ts.URL+"/v1/feeds/room", nil)
			doReq(t, http.MethodPut, ts.URL+"/v1/feeds/other", nil)
			if code, ir, _ := ingest(t, ts.URL, "room", durableFrames(12, 0)); code != http.StatusAccepted || ir.Accepted != 12 {
				t.Fatalf("ingest: code=%d accepted=%d", code, ir.Accepted)
			}
			doReq(t, http.MethodDelete, ts.URL+"/v1/feeds/room", nil)
			if !path.snapshot {
				dropSnapshot(t, dir, "room")
			}

			// Flip one payload bit of the sixth record: second segment, sealed,
			// with five good records ahead of it and six behind.
			seg := filepath.Join(dir, "room", "00000001.flog")
			raw, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			raw[8+565+100] ^= 0x04
			if err := os.WriteFile(seg, raw, 0o644); err != nil {
				t.Fatal(err)
			}

			decided := reg.Counter("server_decisions_total", "").Value()
			code, body, _ := doReq(t, http.MethodPut, ts.URL+"/v1/feeds/room", nil)
			if code != http.StatusInternalServerError || !strings.Contains(string(body), framelog.ErrCorrupt.Error()) {
				t.Fatalf("re-register over a corrupt log: %d %s, want 500 naming %q", code, body, framelog.ErrCorrupt)
			}
			// A full replay decided and counted the five frames ahead of the
			// fault; a restore decides nothing below its anchor. The books stay
			// balanced, and nobody can read the result.
			ahead := 5 - path.restores(5)
			if got := reg.Counter("server_decisions_total", "").Value() - decided; got != ahead {
				t.Fatalf("decided %d frames ahead of the fault, want %d", got, ahead)
			}
			if recovered, restored := recoveryCounts(reg); recovered != ahead || restored != 0 {
				t.Fatalf("recovered %d frames, %d restored; want %d and 0", recovered, restored, ahead)
			}
			if code, _, _ := doReq(t, http.MethodGet, ts.URL+"/v1/feeds/room/occupancy", nil); code != http.StatusNotFound {
				t.Fatalf("occupancy of the failed feed: %d, want 404", code)
			}
			code, body, _ = doReq(t, http.MethodGet, ts.URL+"/v1/feeds", nil)
			if code != http.StatusOK || strings.Contains(string(body), `"room"`) || !strings.Contains(string(body), `"other"`) {
				t.Fatalf("GET /v1/feeds: %d %s, want other without room", code, body)
			}
			if after, err := os.ReadFile(seg); err != nil || string(after) != string(raw) {
				t.Fatalf("the corrupt segment was modified (err %v)", err)
			}

			// The next start must refuse the directory just as loudly.
			cfg := server.Config{Primary: ampPred{}}
			durable(&cfg)
			if srv, err := server.New(cfg); !errors.Is(err, framelog.ErrCorrupt) {
				if srv != nil {
					srv.Close()
				}
				t.Fatalf("New over a corrupt log: %v, want ErrCorrupt in the chain", err)
			}
		})
	}
}

// TestUnusableSnapshotReplaysEverything: for each way a snapshot can be
// unusable, recovery restores nothing, replays every retained record and
// counts the reason under server_snapshots_ignored_total — whose label set is
// fixed: every reason is exposed, at zero, from the start. ampPred without
// smoothing decides each frame alone, so the latest decision after any full
// replay is the logged last frame's.
func TestUnusableSnapshotReplaysEverything(t *testing.T) {
	reasons := []string{"missing", "corrupt", "anchor_mismatch", "beyond_log", "before_log", "scorer", "invalid"}
	rewrite := func(t *testing.T, dir string, edit func(*framelog.Snapshot)) {
		t.Helper()
		snap, err := framelog.ReadSnapshot(dir, "room")
		if err != nil {
			t.Fatal(err)
		}
		edit(&snap)
		if err := os.WriteFile(filepath.Join(dir, "room", "snapshot"), framelog.EncodeSnapshot(snap), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		reason string
		// spoil damages the log directory after the first life; frames is
		// what the log then retains and the replay must cover.
		spoil  func(t *testing.T, dir string, early []byte)
		frames int64
		mod    func(*server.Config)
	}{
		{"missing", func(t *testing.T, dir string, _ []byte) { dropSnapshot(t, dir, "room") }, 8, nil},
		{"corrupt", func(t *testing.T, dir string, _ []byte) {
			path := filepath.Join(dir, "room", "snapshot")
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			raw[len(raw)-1] ^= 1
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}, 8, nil},
		{"anchor_mismatch", func(t *testing.T, dir string, _ []byte) {
			rewrite(t, dir, func(s *framelog.Snapshot) { s.CRC ^= 1 })
		}, 8, nil},
		{"beyond_log", func(t *testing.T, dir string, _ []byte) {
			// A power loss took the last record the snapshot covers.
			seg := filepath.Join(dir, "room", "00000003.flog")
			if err := os.Truncate(seg, 8+3*565); err != nil {
				t.Fatal(err)
			}
		}, 7, nil},
		{"before_log", func(t *testing.T, dir string, early []byte) {
			// The snapshot of an earlier seal, anchored in a retired segment.
			if err := os.WriteFile(filepath.Join(dir, "room", "snapshot"), early, 0o644); err != nil {
				t.Fatal(err)
			}
		}, 8, nil},
		{"scorer", func(*testing.T, string, []byte) {}, 8, func(c *server.Config) { c.SmootherNeed = 1 }},
		{"invalid", func(t *testing.T, dir string, _ []byte) {
			rewrite(t, dir, func(s *framelog.Snapshot) { s.State = s.State[:len(s.State)-1] })
		}, 8, nil},
	}
	for _, c := range cases {
		t.Run(c.reason, func(t *testing.T) {
			dir := t.TempDir()
			durable := func(c *server.Config) {
				// 4 records per segment, keep 2: 16 frames retain 8..15 when
				// each seal's snapshot lands before the next rotation, which
				// retention waits for (it keeps the anchor's segment).
				c.Durability = framelog.Config{Dir: dir, Fsync: framelog.FsyncOff, SegmentMaxBytes: 8 + 4*565, MaxSegments: 2}
			}
			_, ts, _ := newTestServer(t, durable)
			doReq(t, http.MethodPut, ts.URL+"/v1/feeds/room", nil)
			frames := durableFrames(16, 0)
			ingest(t, ts.URL, "room", frames[:6])
			early, err := os.ReadFile(filepath.Join(dir, "room", "snapshot"))
			if err != nil {
				t.Fatalf("no snapshot after the first seal: %v", err)
			}
			for i := 6; i < 16; i++ {
				if code, ir, _ := ingest(t, ts.URL, "room", frames[i:i+1]); code != http.StatusAccepted || ir.Accepted != 1 {
					t.Fatalf("ingest %d: code=%d accepted=%d", i, code, ir.Accepted)
				}
			}
			doReq(t, http.MethodDelete, ts.URL+"/v1/feeds/room", nil)
			c.spoil(t, dir, early)

			_, ts2, reg := newTestServer(t, func(cfg *server.Config) {
				durable(cfg)
				if c.mod != nil {
					c.mod(cfg)
				}
			})
			if recovered, restored := recoveryCounts(reg); recovered != c.frames || restored != 0 {
				t.Fatalf("recovered %d frames, %d restored; want a full replay of %d", recovered, restored, c.frames)
			}
			for _, r := range reasons {
				want := int64(0)
				if r == c.reason {
					want = 1
				}
				if got := reg.Counter(`server_snapshots_ignored_total{reason="`+r+`"}`, "").Value(); got != want {
					t.Fatalf("server_snapshots_ignored_total{reason=%q} = %d, want %d", r, got, want)
				}
			}
			var prom strings.Builder
			if err := reg.WriteProm(&prom); err != nil {
				t.Fatal(err)
			}
			if n := strings.Count(prom.String(), "\nserver_snapshots_ignored_total{"); n != len(reasons) {
				t.Fatalf("%d server_snapshots_ignored_total series exposed, want %d", n, len(reasons))
			}
			code, body, _ := doReq(t, http.MethodGet, ts2.URL+"/v1/feeds/room/occupancy", nil)
			var ev server.Event
			if err := json.Unmarshal(body, &ev); code != http.StatusOK || err != nil || ev.Seq != 7+c.frames {
				t.Fatalf("latest decision after the replay: %d %s, want seq %d", code, body, 7+c.frames)
			}
		})
	}
}

// TestConcurrentIngestMatchesLogReplay hammers one durable feed from 8
// goroutines with 1- and 64-frame batches. Whatever order the batches win
// the feed lock in is the order of the log, the indices and the stream at
// once: seqs run 0..N-1 without a gap, accepted == ingested == decisions,
// and a local stream.Runtime replaying the feed's log reproduces every
// streamed P bit for bit.
func TestConcurrentIngestMatchesLogReplay(t *testing.T) {
	const (
		senders = 8
		rounds  = 6
		total   = senders * rounds * (1 + 64)
	)
	dir := t.TempDir()
	srv, ts, reg := newTestServer(t, func(c *server.Config) {
		c.Durability = framelog.Config{Dir: dir, Fsync: framelog.FsyncOff}
		c.StreamBuffer = total
		c.SmootherNeed = 3
	})
	doReq(t, http.MethodPut, ts.URL+"/v1/feeds/room", nil)
	ch, cancel := streamEvents(t, ts.URL, "room")
	defer cancel()

	var accepted atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for _, n := range []int{1, 64} {
					frames := durableFrames(n, g*1000+r*100)
					frames[0].Dropped = r%2 == 1 // exercise CSI hold-over too
					code, ir, _ := ingest(t, ts.URL, "room", frames)
					if code != http.StatusAccepted {
						t.Errorf("sender %d: status %d", g, code)
					}
					accepted.Add(int64(ir.Accepted))
				}
			}
		}(g)
	}
	wg.Wait()

	ingested := reg.Counter("server_frames_ingested_total", "").Value()
	decisions := reg.Counter("server_decisions_total", "").Value()
	if accepted.Load() != total || ingested != total || decisions != total {
		t.Fatalf("accepted=%d ingested=%d decisions=%d, want all %d", accepted.Load(), ingested, decisions, total)
	}
	events := collect(t, ch, total)
	srv.Close() // seal the log before reading it

	rt, err := stream.New(stream.Config{Primary: ampPred{}, SmootherNeed: 3})
	if err != nil {
		t.Fatal(err)
	}
	n, err := framelog.Replay(dir, "room", -1, func(fr fault.Frame) error {
		d := rt.Process(fr)
		ev := events[fr.Index]
		if ev.Seq != int64(fr.Index) {
			t.Fatalf("stream position %d carries seq %d", fr.Index, ev.Seq)
		}
		if math.Float64bits(ev.P) != math.Float64bits(d.P) || ev.State != d.State || ev.Flipped != d.Flipped ||
			ev.Mode != d.Mode.String() || ev.CSIImputed != d.CSIImputed {
			t.Fatalf("seq %d: streamed %+v, log replay decides %+v", fr.Index, ev, d)
		}
		return nil
	})
	if err != nil || n != total {
		t.Fatalf("log replay: %d frames (%v), want %d", n, err, total)
	}
}

// TestRegisterSpawnsNoGoroutines: a feed is state behind a lock, not a
// goroutine. Requests go straight at the handler so no connection
// goroutines blur the count.
func TestRegisterSpawnsNoGoroutines(t *testing.T) {
	srv, err := server.New(server.Config{Primary: ampPred{}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	before := runtime.NumGoroutine()
	for i := 0; i < 64; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPut, fmt.Sprintf("/v1/feeds/idle-%02d", i), nil))
		if rec.Code != http.StatusCreated {
			t.Fatalf("register %d: %d", i, rec.Code)
		}
	}
	// The timeout handler runs each request on a goroutine of its own, which
	// may still be exiting after ServeHTTP has returned.
	waitFor(t, 2*time.Second, "request goroutines to exit", func() bool { return runtime.NumGoroutine() <= before })
	if srv.FeedCount() != 64 {
		t.Fatalf("%d feeds registered, want 64", srv.FeedCount())
	}
}

// TestRecoverySkipsForeignDirectories: recovery registers only directories a
// valid feed id names. A log root that is its own volume holds lost+found,
// and a hand-off cut short by a crash leaves its half-written staging
// directory; the node boots past both and recovers exactly its two feeds.
func TestRecoverySkipsForeignDirectories(t *testing.T) {
	dir := t.TempDir()
	durable := func(c *server.Config) { c.Durability = framelog.Config{Dir: dir, Fsync: framelog.FsyncOff} }
	srv, ts, _ := newTestServer(t, durable)
	for _, id := range []string{"room-a", "room-b"} {
		doReq(t, http.MethodPut, ts.URL+"/v1/feeds/"+id, nil)
		if code, _, _ := ingest(t, ts.URL, id, durableFrames(3, 0)); code != http.StatusAccepted {
			t.Fatalf("ingest %s: %d", id, code)
		}
	}
	ts.Close()
	srv.Close()
	staging := filepath.Join(dir, "room-c+import-1234")
	for _, d := range []string{filepath.Join(dir, "lost+found"), staging} {
		if err := os.Mkdir(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(staging, "00000000.flog"), []byte("OFLG"), 0o644); err != nil {
		t.Fatal(err)
	}

	srv2, _, reg := newTestServer(t, durable)
	if srv2.FeedCount() != 2 {
		t.Fatalf("recovered %d feeds, want 2", srv2.FeedCount())
	}
	if recovered, _ := recoveryCounts(reg); recovered != 6 {
		t.Fatalf("recovered %d frames, want 6", recovered)
	}
}
