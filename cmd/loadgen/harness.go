package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fault"
	"repro/internal/stream"
	"repro/pkg/occupancy"
)

// Every gate is a phase list over the pieces in this file: one way to boot
// an in-process node, one feed driver, one pair of frame builders and one
// verifier. A mode adds its own orchestration — a drain, a swap, a SIGKILL —
// and nothing else.

// httpBatch is how many frames one ingest call carries: large enough that
// the run is not request-bound, small enough that a mid-run event (a kill,
// a drain) lands between batches rather than after the last one.
const httpBatch = 64

// node is one in-process occupancy server, serving until stop.
type node struct {
	url string
	// stop drains the server and reports Run's error; later calls repeat
	// the first answer, so a deferred stop backs up the checked one.
	stop func() error
}

// bootNode serves the bundle on an ephemeral port through occupancy.NewServer
// — the stack cmd/occuserve runs, registry and install gate included — so
// every mode tests what ships.
func bootNode(bundle []byte, cfg occupancy.ServeConfig) (*node, error) {
	det, err := occupancy.LoadBytes(bundle)
	if err != nil {
		return nil, err
	}
	cfg.Addr = "127.0.0.1:0"
	srv, err := occupancy.NewServer(det, cfg)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Run(ctx) }()
	return &node{url: srv.URL(), stop: sync.OnceValue(func() error {
		cancel()
		return <-done
	})}, nil
}

// noFeedsLeft requires the node at cl's base URL to list no feed: every one
// was closed or drained away, none leaked.
func noFeedsLeft(ctx context.Context, cl *occupancy.Client, what string) error {
	infos, err := cl.ListFeeds(ctx)
	if err != nil {
		return fmt.Errorf("listing feeds on %s: %w", what, err)
	}
	if len(infos) != 0 {
		return fmt.Errorf("%s still has %d feeds", what, len(infos))
	}
	return nil
}

// recoveryCounts scrapes a node's /metrics for what its recoveries did: the
// logged frames whose decision state they rebuilt, and how many of those a
// snapshot restored rather than a replay.
func recoveryCounts(base string) (recovered, restored float64, err error) {
	resp, err := http.Get(strings.TrimSuffix(base, "/") + "/metrics")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) == 2 && f[0] == "server_frames_recovered_total" {
			recovered, err = strconv.ParseFloat(f[1], 64)
		} else if len(f) == 2 && f[0] == "server_frames_restored_total" {
			restored, err = strconv.ParseFloat(f[1], 64)
		}
		if err != nil {
			return 0, 0, err
		}
	}
	return recovered, restored, sc.Err()
}

// newLoadClient builds the occupancy.Client every mode drives the service
// through: a connection pool sized for the whole fleet and short backoff
// caps so pressure retries do not dominate the wall clock.
func newLoadClient(target string, feeds int) (*occupancy.Client, error) {
	return occupancy.NewClient(occupancy.ClientConfig{
		BaseURL: target,
		HTTPClient: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        feeds + 8,
			MaxIdleConnsPerHost: feeds + 8,
		}},
		MaxRetryWait: 50 * time.Millisecond,
	})
}

// bundleDetector decodes a detector bundle. A bundle stores weights as
// float32, so a freshly trained detector is not bit-identical to its own
// saved form: every reference is built from the bytes a server serves,
// never from the in-memory detector those bytes were saved from.
func bundleDetector(bundle []byte) (*core.Detector, error) {
	return core.LoadDetector(bytes.NewReader(bundle))
}

// span says which detector decides a feed's frames from index from on, and
// the registry version its decisions must be tagged with.
type span struct {
	from    int
	det     *core.Detector
	version string
}

// activeSpan fetches the node's active bundle: the reference for every frame
// until a mode activates something else. It works the same against an
// in-process node and an external one, which must serve at f64 — the only
// precision whose decisions are bit-identical to the offline replay.
func activeSpan(ctx context.Context, cl *occupancy.Client) (span, error) {
	ms, err := cl.Models(ctx)
	if err != nil {
		return span{}, fmt.Errorf("listing the target's models: %w", err)
	}
	return versionSpan(ctx, cl, 0, ms.Active)
}

// versionSpan fetches one installed version as the reference from index from.
func versionSpan(ctx context.Context, cl *occupancy.Client, from int, version string) (span, error) {
	bundle, err := cl.FetchModelVersion(ctx, version)
	if err != nil {
		return span{}, fmt.Errorf("fetching model %.12s…: %w", version, err)
	}
	det, err := bundleDetector(bundle)
	if err != nil {
		return span{}, fmt.Errorf("model %.12s…: %w", version, err)
	}
	return span{from: from, det: det, version: version}, nil
}

// wireFrame is the deterministic k-th frame of feed f as the wire carries
// it: each feed walks the record bank from a distinct offset.
func wireFrame(recs []dataset.Record, f, k int) occupancy.Frame {
	r := &recs[(f*131+k)%len(recs)]
	return occupancy.Frame{Time: r.Time, CSI: r.CSI[:], Temp: r.Temp, Humidity: r.Humidity}
}

// refFrame is the same frame as the server's ingest path rebuilds it from
// the wire — only what a Frame carries, labels excluded — for the offline
// replay.
func refFrame(recs []dataset.Record, f, k int) fault.Frame {
	r := &recs[(f*131+k)%len(recs)]
	fr := fault.Frame{Index: k, EnvOK: true}
	fr.Rec.Time, fr.Rec.CSI, fr.Rec.Temp, fr.Rec.Humidity = r.Time, r.CSI, r.Temp, r.Humidity
	fr.Truth = fr.Rec
	return fr
}

// feedRun drives one feed end to end: openFeed registers it and subscribes
// to every decision, send pushes a range of its frames, and close (or, when
// the server ends the stream itself, wait) returns what was streamed.
type feedRun struct {
	cl   *occupancy.Client
	id   string
	f    int // which walk of the record bank this feed sends
	recs []dataset.Record

	acked  atomic.Int64 // frames acknowledged so far, readable while send runs
	events []occupancy.Decision
	done   chan struct{} // closed once the stream has ended and events is final
}

// openFeed registers the feed wherever the client routes it — registration
// is idempotent, so a feed recovered from a log or handed to a new owner
// opens the same way — and subscribes before the first frame is sent, so the
// stream sees every decision made from here on.
func openFeed(ctx context.Context, cl *occupancy.Client, id string, f int, recs []dataset.Record) (*feedRun, error) {
	if _, err := cl.RegisterFeed(ctx, id); err != nil {
		return nil, fmt.Errorf("register %s: %w", id, err)
	}
	st, err := cl.StreamDecisions(ctx, id, true)
	if err != nil {
		return nil, fmt.Errorf("stream %s: %w", id, err)
	}
	r := &feedRun{cl: cl, id: id, f: f, recs: recs, done: make(chan struct{})}
	go func() {
		defer close(r.done)
		defer st.Close()
		for {
			d, err := st.Next()
			if err != nil {
				return // the feed closed, or its server died: the stream is over
			}
			r.events = append(r.events, d)
		}
	}()
	return r, nil
}

// send pushes frames [from, to) in httpBatch chunks. The client rides out
// rate-limit and drain answers itself, so a nil error means every frame was
// acknowledged in order; an error leaves acked at the acknowledged prefix —
// which is how the crash gate learns what a killed server had promised.
func (r *feedRun) send(ctx context.Context, from, to int) error {
	batch := make([]occupancy.Frame, 0, httpBatch)
	for k := from; k < to; k++ {
		batch = append(batch, wireFrame(r.recs, r.f, k))
		if len(batch) < httpBatch && k+1 < to {
			continue
		}
		n, err := r.cl.Ingest(ctx, r.id, batch)
		r.acked.Add(int64(n))
		if err != nil {
			return fmt.Errorf("ingest %s: %w", r.id, err)
		}
		batch = batch[:0]
	}
	return nil
}

// wait blocks until the server has ended the stream and returns every
// decision it delivered.
func (r *feedRun) wait() []occupancy.Decision {
	<-r.done
	return r.events
}

// close deletes the feed — which ends its stream behind the last decision —
// and returns every decision streamed.
func (r *feedRun) close(ctx context.Context) ([]occupancy.Decision, error) {
	if err := r.cl.CloseFeed(ctx, r.id); err != nil {
		return nil, fmt.Errorf("close %s: %w", r.id, err)
	}
	return r.wait(), nil
}

// eachFeed runs fn for feeds 0..n-1 concurrently and joins their errors; its
// return is the barrier between two phases.
func eachFeed(n int, fn func(f int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for f := 0; f < n; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			errs[f] = fn(f)
		}(f)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// verify is the one comparison every gate rests on. It replays frames
// 0..first+n-1 of the feed through a single stream.Runtime — one runtime,
// because smoothing and imputation state carry across a model switch, a
// hand-off and a restart — deciding each frame with the span that covers it,
// and requires events to be exactly the decisions of frames first..first+n-1:
// none missing, none extra, gapless seq, P bit for bit, the same Pred, State
// and Mode, and the span's version tag. stream.Process is deterministic and
// the f64 engine is bit-identical to the detector, so any difference is a
// serving-path bug. The error names the feed and the first offending index.
func (r *feedRun) verify(events []occupancy.Decision, first, n int, spans []span) error {
	pred := &switchPredictor{}
	rt, err := stream.New(stream.Config{Primary: pred, PrimaryUsesEnv: spans[0].det.Features != dataset.FeatCSI})
	if err != nil {
		return err
	}
	next := 0
	for k := 0; k < first+n; k++ {
		for next < len(spans) && spans[next].from <= k {
			pred.cur = spans[next].det
			next++
		}
		d := rt.Process(refFrame(r.recs, r.f, k))
		if k < first {
			continue
		}
		if k-first >= len(events) {
			return fmt.Errorf("%s: the stream ended before decision %d (%d of %d delivered)", r.id, k, len(events), n)
		}
		version := ""
		if d.Mode == stream.ModePrimary {
			version = spans[next-1].version
		}
		if ev := events[k-first]; ev.Seq != int64(k) || math.Float64bits(ev.P) != math.Float64bits(d.P) ||
			ev.Pred != d.Pred || ev.State != d.State || ev.Mode != d.Mode.String() || ev.ModelVersion != version {
			return fmt.Errorf("%s: decision %d diverged: streamed seq=%d P=%x pred=%d state=%d mode=%s version=%.12s, replay P=%x pred=%d state=%d mode=%s version=%.12s",
				r.id, k, ev.Seq, math.Float64bits(ev.P), ev.Pred, ev.State, ev.Mode, ev.ModelVersion,
				math.Float64bits(d.P), d.Pred, d.State, d.Mode, version)
		}
	}
	if len(events) > n {
		return fmt.Errorf("%s: %d decisions streamed past the last expected index %d", r.id, len(events)-n, first+n-1)
	}
	return nil
}

// switchPredictor lets one runtime replay a history that more than one
// model version decided.
type switchPredictor struct{ cur *core.Detector }

func (s *switchPredictor) PredictRecord(r *dataset.Record) (float64, int) {
	return s.cur.PredictRecord(r)
}
