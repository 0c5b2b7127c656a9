package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/csi"
	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/pkg/occupancy"
)

// ampPred is a deterministic stand-in detector: P(occupied) is the first
// subcarrier amplitude, thresholded at 0.5. It lets tests choose decisions
// frame by frame without training anything.
type ampPred struct{}

func (ampPred) PredictRecord(r *dataset.Record) (float64, int) {
	if r.CSI[0] >= 0.5 {
		return r.CSI[0], 1
	}
	return r.CSI[0], 0
}

// gatePred scores like ampPred behind a gate the test can shut: while it is
// shut every prediction blocks — holding its feed's lock, since scoring runs
// inside ingest and replay — and announces itself on entered, so a test can
// park a batch or a replay mid-flight deterministically. It also records the
// time stamp of every record it scores, in scoring order, so a test can
// prove which frames went first without a clock of its own.
type gatePred struct {
	gate    atomic.Value  // chan struct{}; unset or closed: open
	entered chan struct{} // one token per prediction that met a shut gate

	mu     sync.Mutex
	scored []time.Time
}

// order returns the time stamps of the records scored so far, in order.
func (g *gatePred) order() []time.Time {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]time.Time(nil), g.scored...)
}

func newGatePred() *gatePred { return &gatePred{entered: make(chan struct{}, 4096)} }

// shut closes the gate and returns the (idempotent) func that opens it.
func (g *gatePred) shut() (open func()) {
	ch := make(chan struct{})
	g.gate.Store(ch)
	return sync.OnceFunc(func() { close(ch) })
}

func (g *gatePred) PredictRecord(r *dataset.Record) (float64, int) {
	if ch, _ := g.gate.Load().(chan struct{}); ch != nil {
		select {
		case <-ch:
		default:
			g.entered <- struct{}{}
			<-ch
		}
	}
	g.mu.Lock()
	g.scored = append(g.scored, r.Time)
	g.mu.Unlock()
	return ampPred{}.PredictRecord(r)
}

// newTestServer boots a server (mutated by mod) behind httptest.
func newTestServer(t *testing.T, mod func(*server.Config)) (*server.Server, *httptest.Server, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	cfg := server.Config{Primary: ampPred{}, Observer: reg}
	if mod != nil {
		mod(&cfg)
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts, reg
}

// newClient wraps a test server in the typed client every consumer of the
// API is expected to use. Retry waits are shortened so pressure tests stay
// fast.
func newClient(t *testing.T, base string) *occupancy.Client {
	t.Helper()
	cl, err := occupancy.NewClient(occupancy.ClientConfig{
		BaseURL:      base,
		MaxRetryWait: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// mkFrames builds n clean frames whose first subcarrier is amp.
func mkFrames(n int, amp float64) []occupancy.Frame {
	frames := make([]occupancy.Frame, n)
	base := time.Date(2026, 1, 5, 9, 0, 0, 0, time.UTC)
	for i := range frames {
		c := make([]float64, csi.NumSubcarriers)
		c[0] = amp
		for k := 1; k < len(c); k++ {
			c[k] = 1
		}
		frames[i] = occupancy.Frame{Time: base.Add(time.Duration(i) * 50 * time.Millisecond), CSI: c, Temp: 21, Humidity: 40}
	}
	return frames
}

// doReq runs one raw request against the test server — kept for wire-level
// assertions (status codes, headers, exact bodies) the typed client
// deliberately abstracts away.
func doReq(t *testing.T, method, url string, body any) (int, []byte, http.Header) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b, resp.Header
}

// rawIngest POSTs one un-retried batch and decodes whichever body came back:
// the 202 IngestResponse or the error envelope.
func rawIngest(t *testing.T, base, id string, frames []occupancy.Frame) (int, server.IngestResponse, server.ErrorBody, http.Header) {
	t.Helper()
	code, body, hdr := doReq(t, http.MethodPost, base+"/v1/feeds/"+id+"/frames", server.IngestRequest{Frames: frames})
	var ir server.IngestResponse
	var eb server.ErrorBody
	if code == http.StatusAccepted {
		_ = json.Unmarshal(body, &ir)
	} else if len(body) > 0 {
		_ = json.Unmarshal(body, &eb)
	}
	return code, ir, eb, hdr
}

// ingest POSTs one un-retried batch expecting success, folding a pressure
// envelope's accepted count in so recovery tests can assert acceptance
// uniformly.
func ingest(t *testing.T, base, id string, frames []occupancy.Frame) (int, server.IngestResponse, http.Header) {
	t.Helper()
	code, ir, eb, hdr := rawIngest(t, base, id, frames)
	if code != http.StatusAccepted {
		ir.Accepted = eb.Accepted
	}
	return code, ir, hdr
}

// wantCode asserts err is an APIError with the given envelope code.
func wantCode(t *testing.T, err error, code string) {
	t.Helper()
	if err == nil {
		t.Fatalf("want error code %q, got nil", code)
	}
	if !occupancy.IsCode(err, code) {
		t.Fatalf("want error code %q, got %v", code, err)
	}
}

// waitFor polls cond until it returns true or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestLifecycleAndLatestDecision(t *testing.T) {
	srv, ts, _ := newTestServer(t, nil)
	cl := newClient(t, ts.URL)
	ctx := context.Background()

	if err := cl.Healthy(ctx); err != nil {
		t.Fatalf("healthz: %v", err)
	}
	if err := cl.Ready(ctx); err != nil {
		t.Fatalf("readyz before drain: %v", err)
	}

	// Registration is idempotent, and the wire distinguishes created from
	// found.
	if code, _, _ := doReq(t, http.MethodPut, ts.URL+"/v1/feeds/room-a", nil); code != http.StatusCreated {
		t.Fatalf("register: %d, want 201", code)
	}
	if fi, err := cl.RegisterFeed(ctx, "room-a"); err != nil || fi.ID != "room-a" {
		t.Fatalf("re-register: %+v %v", fi, err)
	}
	if _, ok, err := cl.Occupancy(ctx, "room-a"); err != nil || ok {
		t.Fatalf("occupancy before any frame: ok=%v err=%v, want no decision yet", ok, err)
	}

	if n, err := cl.Ingest(ctx, "room-a", mkFrames(3, 0.9)); err != nil || n != 3 {
		t.Fatalf("ingest: %d %v", n, err)
	}

	// No polling: the 202 already means the batch is decided.
	ev, ok, err := cl.Occupancy(ctx, "room-a")
	if err != nil || !ok || ev.Seq != 2 {
		t.Fatalf("occupancy right after ingest: %+v ok=%v err=%v, want seq 2", ev, ok, err)
	}
	if ev.P != 0.9 || ev.Pred != 1 || ev.State != 1 || ev.Mode != "primary" {
		t.Fatalf("decision: %+v", ev)
	}

	feeds, err := cl.ListFeeds(ctx)
	if err != nil || len(feeds) != 1 || feeds[0].ID != "room-a" {
		t.Fatalf("list: %+v %v", feeds, err)
	}

	if err := cl.CloseFeed(ctx, "room-a"); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if n := srv.FeedCount(); n != 0 {
		t.Fatalf("%d feeds registered after the delete returned", n)
	}
	_, _, err = cl.Occupancy(ctx, "room-a")
	wantCode(t, err, server.CodeUnknownFeed)
}

func TestRequestValidation(t *testing.T) {
	_, ts, _ := newTestServer(t, nil)
	cl := newClient(t, ts.URL)
	ctx := context.Background()

	if _, err := cl.RegisterFeed(ctx, "bad id"); !occupancy.IsCode(err, server.CodeInvalidFeedID) {
		t.Fatalf("invalid feed id: %v, want %s", err, server.CodeInvalidFeedID)
	}
	if _, _, err := cl.Occupancy(ctx, "ghost"); !occupancy.IsCode(err, server.CodeUnknownFeed) {
		t.Fatalf("occupancy on unknown feed: %v", err)
	}
	if _, err := cl.StreamDecisions(ctx, "ghost", false); !occupancy.IsCode(err, server.CodeUnknownFeed) {
		t.Fatalf("stream on unknown feed: %v", err)
	}
	if err := cl.CloseFeed(ctx, "ghost"); !occupancy.IsCode(err, server.CodeUnknownFeed) {
		t.Fatalf("delete unknown feed: %v", err)
	}
	if _, err := cl.Ingest(ctx, "ghost", mkFrames(1, 0.5)); !occupancy.IsCode(err, server.CodeUnknownFeed) {
		t.Fatalf("ingest to unknown feed: %v", err)
	}

	if _, err := cl.RegisterFeed(ctx, "room-b"); err != nil {
		t.Fatal("register room-b")
	}
	// Malformed JSON body (below the client: the client can only send
	// well-formed JSON).
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/feeds/room-b/frames", strings.NewReader(`{"frames": [{`))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var eb server.ErrorBody
	_ = json.NewDecoder(resp.Body).Decode(&eb)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || eb.Code != server.CodeMalformedRequest {
		t.Fatalf("malformed JSON: %d %+v, want 400 %s", resp.StatusCode, eb, server.CodeMalformedRequest)
	}
	// Wrong CSI width.
	bad := mkFrames(1, 0.5)
	bad[0].CSI = bad[0].CSI[:7]
	if _, err := cl.Ingest(ctx, "room-b", bad); !occupancy.IsCode(err, server.CodeBadFrame) {
		t.Fatalf("short CSI: %v, want %s", err, server.CodeBadFrame)
	}
	// Empty batch (raw: the client short-circuits an empty slice).
	if code, _, eb, _ := rawIngest(t, ts.URL, "room-b", nil); code != http.StatusBadRequest || eb.Code != server.CodeEmptyBatch {
		t.Fatalf("empty batch: %d %+v", code, eb)
	}
}

// TestFeedInfoCountsPublishedDecisions: ack means decided. The moment Ingest
// returns — no polling — the latest-decision read and the listing's
// decisions field already show the last accepted frame, on a full accept and
// on a rate-limited partial one alike.
func TestFeedInfoCountsPublishedDecisions(t *testing.T) {
	_, ts, _ := newTestServer(t, func(c *server.Config) {
		c.RatePerSec = 0.001 // the bucket never refills within the test
		c.Burst = 7
	})
	cl := newClient(t, ts.URL)
	ctx := context.Background()
	if fi, err := cl.RegisterFeed(ctx, "room-d"); err != nil || fi.Decisions != 0 {
		t.Fatalf("register: %+v %v, want 0 decisions", fi, err)
	}
	check := func(accepted int64) {
		t.Helper()
		d, ok, err := cl.Occupancy(ctx, "room-d")
		if err != nil || !ok || d.Seq != accepted-1 {
			t.Fatalf("occupancy after %d accepted: %+v ok=%v err=%v", accepted, d, ok, err)
		}
		feeds, err := cl.ListFeeds(ctx)
		if err != nil || len(feeds) != 1 || feeds[0].Decisions != accepted {
			t.Fatalf("list after %d accepted: %+v %v", accepted, feeds, err)
		}
		// Re-registering is the per-feed read of the same FeedInfo.
		if fi, err := cl.RegisterFeed(ctx, "room-d"); err != nil || fi.Decisions != accepted {
			t.Fatalf("register after %d accepted: %+v %v", accepted, fi, err)
		}
	}
	if code, ir, _, _ := rawIngest(t, ts.URL, "room-d", mkFrames(5, 0.9)); code != http.StatusAccepted || ir.Accepted != 5 {
		t.Fatalf("ingest: %d %+v, want 202 with 5 accepted", code, ir)
	}
	check(5)
	// Two tokens are left: the accepted prefix of a 429 is decided too.
	if code, _, eb, _ := rawIngest(t, ts.URL, "room-d", mkFrames(5, 0.1)); code != http.StatusTooManyRequests || eb.Accepted != 2 {
		t.Fatalf("partial ingest: %d %+v, want 429 with 2 accepted", code, eb)
	}
	check(7)
}

// TestClientRidesOutBackpressure: the typed client turns the 429 + envelope
// contract into "the whole batch lands": it advances past accepted prefixes
// and honors the retry delay until every frame is in.
func TestClientRidesOutBackpressure(t *testing.T) {
	_, ts, reg := newTestServer(t, func(c *server.Config) {
		c.RatePerSec = 2000
		c.Burst = 4
	})
	cl := newClient(t, ts.URL)
	ctx := context.Background()
	if _, err := cl.RegisterFeed(ctx, "room-bp"); err != nil {
		t.Fatal("register")
	}
	const total = 64
	n, err := cl.Ingest(ctx, "room-bp", mkFrames(total, 0.9))
	if err != nil || n != total {
		t.Fatalf("client ingest through a burst-4 bucket: %d %v, want %d", n, err, total)
	}
	if got := reg.Counter("server_rejected_rate_limited_total", "").Value(); got == 0 {
		t.Fatal("the bucket never pushed back: the test exercised nothing")
	}
	if got := reg.Counter("server_decisions_total", "").Value(); got != total {
		t.Fatalf("%d decisions after the client returned, want %d", got, total)
	}
}

// TestTimedOutIngestAcceptsNothing pins ack-or-nothing under RequestTimeout:
// the timeout handler answers 503 but lets the handler run on, so a batch
// that was still waiting for the feed when its request died must be refused
// whole — the client was told it failed and will retry it.
func TestTimedOutIngestAcceptsNothing(t *testing.T) {
	g := newGatePred()
	open := g.shut()
	_, ts, reg := newTestServer(t, func(c *server.Config) {
		c.Primary = g
		c.RequestTimeout = 40 * time.Millisecond
	})
	t.Cleanup(open)
	if code, _, _ := doReq(t, http.MethodPut, ts.URL+"/v1/feeds/room-t", nil); code != http.StatusCreated {
		t.Fatalf("register: %d", code)
	}

	// The holder parks inside its first prediction, holding the feed lock.
	var wg sync.WaitGroup
	timedOut := func(frames []occupancy.Frame) {
		defer wg.Done()
		if code, _, eb, _ := rawIngest(t, ts.URL, "room-t", frames); code != http.StatusServiceUnavailable || eb.Code != server.CodeTimeout {
			t.Errorf("ingest behind a held feed: %d %+v, want 503 %s", code, eb, server.CodeTimeout)
		}
	}
	wg.Add(1)
	go timedOut(mkFrames(1, 0.9))
	<-g.entered
	// The waiter queues on the lock and times out there.
	wg.Add(1)
	go timedOut(mkFrames(3, 0.9))
	wg.Wait()

	open()
	// Both handlers run on after their 503s; the request histogram counts a
	// handler when it returns (register + holder + waiter).
	waitFor(t, 5*time.Second, "timed-out handlers to finish", func() bool {
		for _, m := range reg.Snapshot().Metrics {
			if m.Name == "server_request_seconds" {
				return m.Count == 3
			}
		}
		return false
	})
	// The holder's frame was mid-flight and is in; the waiter's are not.
	if got := reg.Counter("server_frames_ingested_total", "").Value(); got != 1 {
		t.Fatalf("server_frames_ingested_total = %d, want 1: the timed-out batch was accepted", got)
	}
	if code, _, _, _ := rawIngest(t, ts.URL, "room-t", mkFrames(1, 0.9)); code != http.StatusAccepted {
		t.Fatalf("retry after the timeout: %d", code)
	}
	code, body, _ := doReq(t, http.MethodGet, ts.URL+"/v1/feeds/room-t/occupancy", nil)
	var ev server.Event
	if err := json.Unmarshal(body, &ev); code != http.StatusOK || err != nil || ev.Seq != 1 {
		t.Fatalf("retried frame: %d %s, want seq 1 (the refused batch consumed no indices)", code, body)
	}
}

// TestStreamAllParam: ?all is a boolean, not a presence flag. Each case gets
// a fresh feed, three same-state frames (one transition: the first decision)
// and a state-flipping sentinel every mode delivers.
func TestStreamAllParam(t *testing.T) {
	_, ts, _ := newTestServer(t, nil)
	for i, tc := range []struct {
		query string
		code  int
		want  int // events seen before the sentinel
	}{
		{"", http.StatusOK, 1},
		{"?all=", http.StatusOK, 1},
		{"?all=0", http.StatusOK, 1},
		{"?all=false", http.StatusOK, 1},
		{"?all=1", http.StatusOK, 3},
		{"?all=true", http.StatusOK, 3},
		{"?all=yes", http.StatusBadRequest, 0},
	} {
		id := fmt.Sprintf("room-%d", i)
		if code, _, _ := doReq(t, http.MethodPut, ts.URL+"/v1/feeds/"+id, nil); code != http.StatusCreated {
			t.Fatalf("register: %d", code)
		}
		resp, err := http.Get(ts.URL + "/v1/feeds/" + id + "/stream" + tc.query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Fatalf("stream%s: %d, want %d", tc.query, resp.StatusCode, tc.code)
		}
		dec := json.NewDecoder(resp.Body)
		if tc.code != http.StatusOK {
			var eb server.ErrorBody
			if err := dec.Decode(&eb); err != nil || eb.Code != server.CodeMalformedRequest {
				t.Fatalf("stream%s: envelope %+v (%v), want %s", tc.query, eb, err, server.CodeMalformedRequest)
			}
			continue
		}
		if code, _, _ := ingest(t, ts.URL, id, append(mkFrames(3, 0.9), mkFrames(1, 0.1)...)); code != http.StatusAccepted {
			t.Fatalf("ingest: %d", code)
		}
		got := 0
		for {
			var ev server.Event
			if err := dec.Decode(&ev); err != nil {
				t.Fatalf("stream%s: %v after %d events", tc.query, err, got)
			}
			if ev.Seq == 3 {
				break
			}
			got++
		}
		if got != tc.want {
			t.Fatalf("stream%s delivered %d of the 3 same-state decisions, want %d", tc.query, got, tc.want)
		}
	}
}

func TestRateLimitReturns429(t *testing.T) {
	_, ts, reg := newTestServer(t, func(c *server.Config) {
		c.RatePerSec = 1
		c.Burst = 2
	})
	cl := newClient(t, ts.URL)
	if _, err := cl.RegisterFeed(context.Background(), "room-r"); err != nil {
		t.Fatal("register")
	}
	code, _, eb, hdr := rawIngest(t, ts.URL, "room-r", mkFrames(5, 0.9))
	if code != http.StatusTooManyRequests || eb.Code != server.CodeRateLimited {
		t.Fatalf("rate-limited ingest: %d %+v", code, eb)
	}
	if eb.Accepted != 2 || eb.Rejected != 3 {
		t.Fatalf("burst accounting: %+v", eb)
	}
	if hdr.Get("Retry-After") == "" || eb.RetryAfterMS <= 0 {
		t.Fatal("429 without retry guidance")
	}
	if got := reg.Counter("server_rejected_rate_limited_total", "").Value(); got != 3 {
		t.Fatalf("rate-limited counter %d, want 3", got)
	}
}

func TestStreamAndClientDisconnect(t *testing.T) {
	_, ts, _ := newTestServer(t, nil)
	cl := newClient(t, ts.URL)
	ctx := context.Background()
	if _, err := cl.RegisterFeed(ctx, "room-s"); err != nil {
		t.Fatal("register")
	}

	// Subscriber 1 will be killed mid-stream; subscriber 2 survives.
	doomedCtx, cancel := context.WithCancel(context.Background())
	doomed, err := cl.StreamDecisions(doomedCtx, "room-s", true)
	if err != nil {
		t.Fatal(err)
	}
	defer doomed.Close()
	survivor, err := cl.StreamDecisions(ctx, "room-s", true)
	if err != nil {
		t.Fatal(err)
	}
	defer survivor.Close()

	var events []occupancy.Decision
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			ev, err := survivor.Next()
			if err != nil {
				return // stream ended with the feed
			}
			events = append(events, ev)
		}
	}()

	if n, err := cl.Ingest(ctx, "room-s", mkFrames(4, 0.9)); err != nil || n != 4 {
		t.Fatalf("first ingest: %d %v", n, err)
	}
	// Kill subscriber 1 mid-stream, then keep ingesting: the server must
	// shrug the disconnect off and keep serving the survivor.
	cancel()
	if n, err := cl.Ingest(ctx, "room-s", mkFrames(4, 0.1)); err != nil || n != 4 {
		t.Fatalf("post-disconnect ingest: %d %v", n, err)
	}

	if err := cl.CloseFeed(ctx, "room-s"); err != nil {
		t.Fatal("delete")
	}
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("survivor stream did not end after feed close")
	}
	if len(events) != 8 {
		t.Fatalf("survivor saw %d events, want 8", len(events))
	}
	for i, ev := range events {
		if int(ev.Seq) != i {
			t.Fatalf("event %d has seq %d (gap)", i, ev.Seq)
		}
	}
	// The second half flipped the state: 0.9s then 0.1s (no smoother is
	// configured, so the raw prediction is the state and Flipped stays
	// false).
	if events[3].State != 1 || events[7].State != 0 || events[7].P != 0.1 {
		t.Fatalf("decision sequence wrong: %+v / %+v", events[3], events[7])
	}
}

func TestDrainUnderLoadLosesNoDecisions(t *testing.T) {
	srv, ts, reg := newTestServer(t, nil)
	cl := newClient(t, ts.URL)
	ctx := context.Background()
	const feeds = 4
	for f := 0; f < feeds; f++ {
		if _, err := cl.RegisterFeed(ctx, fmt.Sprintf("load-%d", f)); err != nil {
			t.Fatal("register")
		}
	}

	// Hammer ingest from every feed until drain rejection appears.
	var accepted atomic.Int64
	var wg sync.WaitGroup
	for f := 0; f < feeds; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			for {
				n, err := cl.Ingest(ctx, fmt.Sprintf("load-%d", f), mkFrames(8, 0.7))
				accepted.Add(int64(n))
				if err == nil {
					continue
				}
				switch {
				case occupancy.IsCode(err, server.CodeDraining),
					occupancy.IsCode(err, server.CodeUnknownFeed): // feed already closed
					return
				default:
					t.Errorf("ingest during load: unexpected error %v", err)
					return
				}
			}
		}(f)
	}

	waitFor(t, 2*time.Second, "load to flow", func() bool { return accepted.Load() > 64 })
	srv.BeginDrain()
	if err := cl.Ready(ctx); err == nil {
		t.Fatal("readyz while draining: want 503")
	}
	_, err := cl.RegisterFeed(ctx, "late")
	wantCode(t, err, server.CodeDraining)
	wg.Wait()

	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		t.Fatal(err)
	}
	// Accepted means decided: every frame a 202/429 response counted as
	// accepted has a decision.
	ingested := reg.Counter("server_frames_ingested_total", "").Value()
	decisions := reg.Counter("server_decisions_total", "").Value()
	if ingested != accepted.Load() {
		t.Fatalf("server counted %d ingested, clients saw %d accepted", ingested, accepted.Load())
	}
	if decisions != ingested {
		t.Fatalf("drain lost decisions: %d ingested, %d decided", ingested, decisions)
	}
	if srv.FeedCount() != 0 {
		t.Fatalf("%d feeds survived drain", srv.FeedCount())
	}
}

func TestIdleFeedEviction(t *testing.T) {
	srv, ts, reg := newTestServer(t, func(c *server.Config) {
		c.IdleTimeout = 240 * time.Millisecond
	})
	cl := newClient(t, ts.URL)
	ctx := context.Background()
	if _, err := cl.RegisterFeed(ctx, "quiet"); err != nil {
		t.Fatal("register")
	}
	waitFor(t, 5*time.Second, "idle eviction", func() bool { return srv.FeedCount() == 0 })
	if got := reg.Counter("server_feeds_evicted_total", "").Value(); got != 1 {
		t.Fatalf("evicted counter %d, want 1", got)
	}
	if _, _, err := cl.Occupancy(ctx, "quiet"); !occupancy.IsCode(err, server.CodeUnknownFeed) {
		t.Fatal("evicted feed still routable")
	}
	// The id is free again.
	if _, err := cl.RegisterFeed(ctx, "quiet"); err != nil {
		t.Fatal("re-register after eviction")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := server.New(server.Config{}); err == nil {
		t.Fatal("nil Primary accepted")
	}
	if err := (server.Config{Primary: ampPred{}, QueueDepth: -1}).Validate(); err == nil {
		t.Fatal("negative QueueDepth accepted")
	}
	if err := (server.Config{Primary: ampPred{}, RequestTimeout: -time.Second}).Validate(); err == nil {
		t.Fatal("negative RequestTimeout accepted")
	}
	if err := (server.Config{Primary: ampPred{}, Cluster: &server.ClusterConfig{}}).Validate(); err == nil {
		t.Fatal("ClusterConfig without Self accepted")
	}
	if err := (server.ClusterConfig{Self: "a", Map: occupancy.ShardMap{Epoch: -1}}).Validate(); err == nil {
		t.Fatal("invalid shard map accepted")
	}
}

// TestConfigRefusesBadRate: a NaN, negative or infinite RatePerSec is
// refused rather than served as no limit; 0 still means unlimited.
func TestConfigRefusesBadRate(t *testing.T) {
	for _, rate := range []float64{math.NaN(), -5, math.Inf(1)} {
		if err := (server.Config{Primary: ampPred{}, RatePerSec: rate}).Validate(); err == nil {
			t.Errorf("RatePerSec %v accepted", rate)
		}
	}
	if err := (server.Config{Primary: ampPred{}, RatePerSec: 0}).Validate(); err != nil {
		t.Errorf("RatePerSec 0 (unlimited) refused: %v", err)
	}
}

// errors.As sanity for the exported error type: a wrapped APIError still
// answers IsCode.
func TestAPIErrorUnwrap(t *testing.T) {
	_, ts, _ := newTestServer(t, nil)
	cl := newClient(t, ts.URL)
	_, _, err := cl.Occupancy(context.Background(), "ghost")
	wrapped := fmt.Errorf("polling: %w", err)
	if !occupancy.IsCode(wrapped, server.CodeUnknownFeed) {
		t.Fatalf("wrapped APIError lost its code: %v", wrapped)
	}
	var ae *occupancy.APIError
	if !errors.As(wrapped, &ae) || ae.Status != http.StatusNotFound {
		t.Fatalf("wrapped APIError lost its status: %v", wrapped)
	}
}
