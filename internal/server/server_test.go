package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
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

// gatePred blocks every prediction until the gate closes, so tests can wedge
// a feed's runtime and fill its queue deterministically.
type gatePred struct{ gate chan struct{} }

func (g gatePred) PredictRecord(r *dataset.Record) (float64, int) {
	<-g.gate
	return 1, 1
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

	var ev occupancy.Decision
	waitFor(t, 2*time.Second, "decision seq 2", func() bool {
		d, ok, err := cl.Occupancy(ctx, "room-a")
		if err != nil {
			t.Fatal(err)
		}
		ev = d
		return ok && ev.Seq == 2
	})
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
	waitFor(t, 2*time.Second, "feed teardown", func() bool { return srv.FeedCount() == 0 })
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

func TestQueueFullReturns429(t *testing.T) {
	gate := make(chan struct{})
	_, ts, reg := newTestServer(t, func(c *server.Config) {
		c.Primary = gatePred{gate: gate}
		c.QueueDepth = 2
	})
	cl := newClient(t, ts.URL)
	ctx := context.Background()
	if _, err := cl.RegisterFeed(ctx, "room-q"); err != nil {
		t.Fatal("register")
	}

	code, _, eb, hdr := rawIngest(t, ts.URL, "room-q", mkFrames(10, 0.9))
	if code != http.StatusTooManyRequests {
		t.Fatalf("overfull ingest: %d, want 429", code)
	}
	if eb.Code != server.CodeQueueFull {
		t.Fatalf("code %q, want %s", eb.Code, server.CodeQueueFull)
	}
	if hdr.Get("Retry-After") == "" || eb.RetryAfterMS <= 0 {
		t.Fatalf("429 without retry guidance: header %q, retry_after_ms %d", hdr.Get("Retry-After"), eb.RetryAfterMS)
	}
	// Queue depth 2 plus at most two frames already pulled by the (gated)
	// runtime: the accept watermark is tight, never silent.
	if eb.Accepted < 1 || eb.Accepted > 4 || eb.Accepted+eb.Rejected != 10 {
		t.Fatalf("partial accept accounting: %+v", eb)
	}
	if got := reg.Counter("server_rejected_queue_full_total", "").Value(); got != int64(eb.Rejected) {
		t.Fatalf("rejected counter %d != response %d", got, eb.Rejected)
	}

	// Unblock and close: every accepted frame must still get its decision.
	close(gate)
	if err := cl.CloseFeed(ctx, "room-q"); err != nil {
		t.Fatal("delete")
	}
	waitFor(t, 2*time.Second, "queued frames to drain", func() bool {
		return reg.Counter("server_decisions_total", "").Value() == int64(eb.Accepted)
	})
}

// TestFeedInfoCountsPublishedDecisions: the listing's decisions field counts
// decisions published, not frames accepted — with the predictor blocked it
// trails the accepted count by the queued backlog and catches up only as
// predictions are released.
func TestFeedInfoCountsPublishedDecisions(t *testing.T) {
	gate := make(chan struct{})
	_, ts, _ := newTestServer(t, func(c *server.Config) {
		c.Primary = gatePred{gate: gate}
		c.QueueDepth = 8
	})
	cl := newClient(t, ts.URL)
	ctx := context.Background()
	if fi, err := cl.RegisterFeed(ctx, "room-d"); err != nil || fi.Decisions != 0 {
		t.Fatalf("register: %+v %v, want 0 decisions", fi, err)
	}
	const accepted = 5
	if n, err := cl.Ingest(ctx, "room-d", mkFrames(accepted, 0.9)); err != nil || n != accepted {
		t.Fatalf("ingest: %d %v, want %d accepted", n, err, accepted)
	}
	decisions := func() int64 {
		feeds, err := cl.ListFeeds(ctx)
		if err != nil || len(feeds) != 1 {
			t.Fatalf("list: %+v %v", feeds, err)
		}
		// Re-registering is the per-feed read of the same FeedInfo.
		fi, err := cl.RegisterFeed(ctx, "room-d")
		if err != nil || fi.Decisions != feeds[0].Decisions {
			t.Fatalf("register reports %d decisions (%v), list reports %d", fi.Decisions, err, feeds[0].Decisions)
		}
		return fi.Decisions
	}
	if got := decisions(); got != 0 {
		t.Fatalf("%d frames accepted, predictor blocked: decisions = %d, want 0", accepted, got)
	}
	gate <- struct{}{}
	gate <- struct{}{}
	waitFor(t, 2*time.Second, "two released decisions", func() bool { return decisions() == 2 })
	close(gate)
	waitFor(t, 2*time.Second, "decisions to catch up with accepted", func() bool { return decisions() == accepted })
}

// TestClientRidesOutBackpressure: the typed client turns the 429 + envelope
// contract into "the whole batch lands": it advances past accepted prefixes
// and honors the retry delay until every frame is in.
func TestClientRidesOutBackpressure(t *testing.T) {
	_, ts, reg := newTestServer(t, func(c *server.Config) {
		c.QueueDepth = 4
	})
	cl := newClient(t, ts.URL)
	ctx := context.Background()
	if _, err := cl.RegisterFeed(ctx, "room-bp"); err != nil {
		t.Fatal("register")
	}
	const total = 64
	n, err := cl.Ingest(ctx, "room-bp", mkFrames(total, 0.9))
	if err != nil || n != total {
		t.Fatalf("client ingest through a depth-4 queue: %d %v, want %d", n, err, total)
	}
	waitFor(t, 5*time.Second, "all decisions", func() bool {
		return reg.Counter("server_decisions_total", "").Value() == total
	})
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
					occupancy.IsCode(err, server.CodeUnknownFeed): // queue already closed
					return
				case occupancy.IsCode(err, server.CodeQueueFull):
					continue // retry budget ran out under pressure; keep hammering
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
	// The backpressure contract's other half: accepted means decided. Every
	// frame a 202/429 response counted as accepted has a decision.
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
