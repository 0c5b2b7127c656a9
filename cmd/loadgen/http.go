package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/stream"
	"repro/pkg/occupancy"
)

// httpBatch is how many frames one ingest call carries. Small enough that a
// full queue yields partial accepts (exercising the client's 429 ride-out),
// large enough that the benchmark is not request-bound.
const httpBatch = 64

// httpFrame is the deterministic k-th frame of feed f, exactly as the wire
// carries it: each feed walks the record bank from a distinct offset.
func httpFrame(recs []dataset.Record, f, k int) occupancy.Frame {
	r := &recs[(f*131+k)%len(recs)]
	return occupancy.Frame{Time: r.Time, CSI: r.CSI[:], Temp: r.Temp, Humidity: r.Humidity}
}

// refFrame mirrors the server-side frame construction (FrameJSON.toFrame)
// for the local reference runtime.
func refFrame(recs []dataset.Record, f, k int) fault.Frame {
	r := recs[(f*131+k)%len(recs)]
	return fault.Frame{Rec: r, Truth: r, Index: k, EnvOK: true}
}

// newLoadClient builds the occupancy.Client every HTTP-mode path drives the
// service through: a connection pool sized for the whole fleet and short
// backoff caps so pressure retries do not dominate the wall clock.
func newLoadClient(target string, feeds int) *occupancy.Client {
	hc := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        feeds + 8,
		MaxIdleConnsPerHost: feeds + 8,
	}}
	cl, err := occupancy.NewClient(occupancy.ClientConfig{
		BaseURL:      target,
		HTTPClient:   hc,
		MaxRetryWait: 50 * time.Millisecond,
	})
	fail(err)
	return cl
}

// runHTTPMode drives the network serving layer with feeds concurrent clients
// (all through occupancy.Client — loadgen doubles as the client's load
// test). With an empty target it boots the in-process server and verifies
// zero decision divergence: every feed subscribes to its NDJSON stream
// (?all=1) and requires the event sequence to match, bit for bit in P, a
// local stream.Runtime replaying the same frames over the direct detector
// path. With -target it load-drives an external server; when that server is
// cluster-configured its served weights are by construction the active
// /v1/models bundle, so the harness fetches it and verifies against it too.
func runHTTPMode(det *core.Detector, recs []dataset.Record, feeds, perFeed, workers int, target string, reg *obs.Registry) {
	ctx := context.Background()
	inProcess := target == ""
	var srv *server.Server
	if inProcess {
		eng, err := core.NewDetectorEngine(det, core.ServeConfig{Workers: workers, Observer: reg})
		fail(err)
		defer eng.Close()
		srv, err = server.New(server.Config{
			Primary:        eng,
			PrimaryUsesEnv: det.Features != dataset.FeatCSI,
			// A subscriber buffer covering the whole replay makes "no
			// events dropped" a hard guarantee, so any divergence is the
			// server's fault, not the harness's.
			StreamBuffer: perFeed,
			Observer:     reg,
		})
		fail(err)
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		fail(err)
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(lis)
		defer hs.Close()
		target = "http://" + lis.Addr().String()
		fmt.Printf("loadgen: in-process server at %s\n", target)
	}

	cl := newLoadClient(target, feeds)
	verify := inProcess
	if !inProcess {
		// An external target is verifiable only when its served weights are
		// knowable: cluster-configured nodes serve exactly the bundle they
		// distribute (a standalone server may serve in-memory weights whose
		// saved form rounds through float32).
		if info, err := cl.Cluster(ctx); err == nil && info.ModelSHA256 != "" {
			blob, err := cl.FetchModel(ctx)
			fail(err)
			det, err = core.LoadDetector(bytes.NewReader(blob))
			fail(err)
			verify = true
			fmt.Printf("loadgen: fetched the target's detector bundle (%d bytes, sha %.12s…); verifying against it\n",
				len(blob), info.ModelSHA256)
		} else {
			fmt.Println("loadgen: external target without a verifiable bundle; driving load without decision checks")
		}
	}

	var accepted, events, gaps, diverged atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for f := 0; f < feeds; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			id := fmt.Sprintf("feed-%03d", f)
			driveFeed(ctx, cl, id, f, perFeed, recs, det, verify,
				&accepted, &events, &gaps, &diverged)
		}(f)
	}
	wg.Wait()
	elapsed := time.Since(start)

	if inProcess {
		// Nothing was left behind: every feed was deleted and drained.
		if n := srv.FeedCount(); n != 0 {
			fail(fmt.Errorf("http: %d feeds still registered after the run", n))
		}
	}
	fmt.Printf("loadgen: http    %10.0f frames/sec   (%d feeds, %d frames, %v)\n",
		float64(accepted.Load())/elapsed.Seconds(), feeds, accepted.Load(), elapsed.Round(time.Millisecond))
	fmt.Printf("loadgen: http stats: %d events streamed, %d seq gaps\n", events.Load(), gaps.Load())
	if inProcess {
		count := func(name string) int64 { return reg.Counter(name, "").Value() }
		fmt.Printf("loadgen: server stats: %d ingested, %d decisions, %d events dropped\n",
			count("server_frames_ingested_total"), count("server_decisions_total"),
			count("server_stream_events_dropped_total"))
	}
	if verify {
		if n := diverged.Load(); n != 0 {
			fail(fmt.Errorf("http: %d decisions diverged from the local reference", n))
		}
		if gaps.Load() != 0 {
			fail(fmt.Errorf("http: event streams had seq gaps"))
		}
		fmt.Println("loadgen: http verify: every streamed decision bit-identical to the local runtime")
	}
}

// driveFeed registers one feed, subscribes to its full decision stream,
// pushes perFeed frames (the client rides out 429 partial accepts, so a
// clean return means every frame was accepted in send order), closes the
// feed and waits for the stream to end, then — with verify — replays the
// same frames through a local stream.Runtime and compares decisions.
func driveFeed(ctx context.Context, cl *occupancy.Client, id string, f, perFeed int, recs []dataset.Record,
	det *core.Detector, verify bool,
	accepted, events, gaps, diverged *atomic.Int64) {

	if _, err := cl.RegisterFeed(ctx, id); err != nil {
		fail(fmt.Errorf("http: register %s: %w", id, err))
	}

	// Subscribe before the first frame so the stream sees every decision.
	st, err := cl.StreamDecisions(ctx, id, true)
	if err != nil {
		fail(fmt.Errorf("http: stream %s: %w", id, err))
	}
	got := make([]occupancy.Decision, 0, perFeed)
	streamDone := make(chan struct{})
	go func() {
		defer close(streamDone)
		defer st.Close()
		for {
			d, err := st.Next()
			if err != nil {
				return // the feed closed and the stream ended
			}
			got = append(got, d)
		}
	}()

	pending := make([]occupancy.Frame, 0, httpBatch)
	flush := func() {
		if len(pending) == 0 {
			return
		}
		n, err := cl.Ingest(ctx, id, pending)
		accepted.Add(int64(n))
		if err != nil {
			fail(fmt.Errorf("http: ingest %s: %w", id, err))
		}
		pending = pending[:0]
	}
	for k := 0; k < perFeed; k++ {
		pending = append(pending, httpFrame(recs, f, k))
		if len(pending) == httpBatch {
			flush()
		}
	}
	flush()

	// Close the feed: the server drains the queue (every accepted frame
	// still gets its decision) and then ends the stream.
	if err := cl.CloseFeed(ctx, id); err != nil {
		fail(fmt.Errorf("http: close %s: %w", id, err))
	}
	<-streamDone

	events.Add(int64(len(got)))
	for i := range got {
		if int(got[i].Seq) != i {
			gaps.Add(1)
		}
	}
	if verify {
		verifyDecisions(id, f, got, perFeed, recs, det, diverged)
	}
}

// verifyDecisions compares a feed's streamed decision sequence against a
// local stream.Runtime replaying the identical frames over the direct
// detector path. stream.Process is deterministic and the serving engine is
// bit-identical to the detector, so any mismatch is a served-path bug.
func verifyDecisions(id string, f int, got []occupancy.Decision, perFeed int, recs []dataset.Record,
	det *core.Detector, diverged *atomic.Int64) {

	if len(got) != perFeed {
		fmt.Printf("loadgen: %s: %d decisions streamed, want %d\n", id, len(got), perFeed)
		diverged.Add(1)
		return
	}
	rt, err := stream.New(stream.Config{Primary: det, PrimaryUsesEnv: det.Features != dataset.FeatCSI})
	fail(err)
	for k := 0; k < perFeed; k++ {
		d := rt.Process(refFrame(recs, f, k))
		ev := got[k]
		if ev.Seq != int64(k) || math.Float64bits(ev.P) != math.Float64bits(d.P) || ev.Pred != d.Pred ||
			ev.State != d.State || ev.Mode != d.Mode.String() {
			diverged.Add(1)
		}
	}
}
