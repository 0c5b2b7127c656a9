package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"sync"
	"time"

	"repro/bench/benchkit"
	"repro/internal/fault"
	"repro/internal/framelog"
	"repro/internal/stream"
	"repro/pkg/occupancy"
)

// restart_recovery is a server coming back after a crash: set-up writes 64
// feeds x 4000 frames straight through framelog, then every repetition
// boots occupancy.NewServer on that directory and waits until all 256 000
// frames are replayed. It is the only workload that reads the frame log
// (Open scan + Replay) and the only serving one with no HTTP or JSON in the
// timed part; 64 synchronous replayers feed the engine batches of up to 64.
const (
	recoveryFeeds     = 64
	recoveryPerFeed   = 4000
	recoverySmokeFeed = 250
	// recoveryPoll is how often the harness reads the recovered-frames
	// counter; it bounds the timing resolution (0.2 % of a repetition).
	recoveryPoll = 2 * time.Millisecond
	// recoveryRefFeeds is how many feeds' final decisions are also checked
	// against a full local replay (the rest must agree between repetitions).
	recoveryRefFeeds = 4
	// recoverySlices is how many equal time slices latency_tail_ms cuts the
	// window into: about four restarts a slice at 25 s.
	recoverySlices = 5
)

type recoveryWorkload struct {
	env     *environment
	fx      *fixture
	logDir  string
	perFeed int
	// first holds the final decision per feed of the first repetition;
	// every later one must equal it bit for bit.
	first []occupancy.Decision
}

func feedName(f int) string { return fmt.Sprintf("feed-%03d", f) }

func (w *recoveryWorkload) setup(env *environment) error {
	w.env = env
	w.first = nil
	w.perFeed = recoveryPerFeed
	if env.smoke {
		w.perFeed = recoverySmokeFeed
	}
	var err error
	if w.fx, err = buildFixture(env); err != nil {
		return err
	}
	if w.logDir, err = env.newDir("log"); err != nil {
		return err
	}
	// All feeds are written through the log's own writer, a few at a time:
	// filling them through a server one feed after another would crawl at
	// the engine's singleton wait (~400 frames/s).
	cfg := framelog.Config{Dir: w.logDir}
	sem := make(chan struct{}, env.gomaxprocs)
	errs := make(chan error, recoveryFeeds)
	var wg sync.WaitGroup
	for f := 0; f < recoveryFeeds; f++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(f int) {
			defer wg.Done()
			defer func() { <-sem }()
			errs <- w.writeFeed(cfg, f)
		}(f)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *recoveryWorkload) writeFeed(cfg framelog.Config, f int) error {
	lw, _, err := framelog.Open(cfg, feedName(f))
	if err != nil {
		return err
	}
	batch := make([]fault.Frame, 0, 256)
	for k := 0; k < w.perFeed; k++ {
		batch = append(batch, w.fx.logFrame(f, k))
		if len(batch) == cap(batch) || k == w.perFeed-1 {
			if _, err := lw.AppendBatch(batch); err != nil {
				_ = lw.Close()
				return err
			}
			batch = batch[:0]
		}
	}
	return lw.Close()
}

func (w *recoveryWorkload) teardown() { _ = os.RemoveAll(w.logDir) }

// recoveryRep is one timed restart.
type recoveryRep struct {
	at        time.Time // the NewServer call
	wall, cpu time.Duration
	final     []occupancy.Decision
}

// restart boots a server on the log directory, waits until every logged
// frame has been replayed, reads each feed's latest decision and shuts the
// server down cleanly. Only NewServer-to-recovered is timed.
func (w *recoveryWorkload) restart(rec *benchkit.Recorder, trace uint64) (*recoveryRep, error) {
	total := float64(recoveryFeeds * w.perFeed)
	cpu0 := benchkit.CPUTime()
	t0 := time.Now()
	sv, err := startServing(w.fx.det, serveConfig(w.logDir, nil))
	if err != nil {
		return nil, err
	}
	booted := time.Now()
	giveUp := t0.Add(60 * time.Second)
	for {
		if v, _ := benchkit.PromValue(sv.srv.Metrics(), "server_frames_recovered_total"); v >= total {
			break
		}
		if time.Now().After(giveUp) {
			_ = sv.stop()
			return nil, fmt.Errorf("restart_recovery: recovery did not finish within 60 s")
		}
		time.Sleep(recoveryPoll)
	}
	t1 := time.Now()
	rep := &recoveryRep{at: t0, wall: t1.Sub(t0), cpu: benchkit.CPUTime() - cpu0}
	root := rec.Add("recovery.rep", trace, 0, t0, t1)
	rec.Add("occupancy.new_server", trace, root, t0, booted)
	rec.Add("recovery.replay", trace, root, booted, t1)

	ctx := context.Background()
	rep.final = make([]occupancy.Decision, recoveryFeeds)
	for f := range rep.final {
		d, ok, err := sv.cl.Occupancy(ctx, feedName(f))
		if err != nil || !ok {
			_ = sv.stop()
			return nil, fmt.Errorf("restart_recovery: no latest decision on %s (err %v)", feedName(f), err)
		}
		rep.final[f] = d
	}
	t2 := time.Now()
	rec.Add("recovery.read_final", trace, 0, t1, t2)
	if err := sv.stop(); err != nil {
		return nil, err
	}
	rec.Add("recovery.shutdown", trace, 0, t2, time.Now())
	return rep, nil
}

// check counts the feeds whose final decision is not the last logged frame
// or differs from the first repetition's.
func (w *recoveryWorkload) check(rep *recoveryRep) int64 {
	if w.first == nil {
		w.first = rep.final
	}
	var bad int64
	for f, d := range rep.final {
		a := w.first[f]
		if d.Seq != int64(w.perFeed-1) || d.Seq != a.Seq || math.Float64bits(d.P) != math.Float64bits(a.P) ||
			d.Pred != a.Pred || d.State != a.State || d.Mode != a.Mode {
			bad++
		}
	}
	return bad
}

func (w *recoveryWorkload) measure(window time.Duration, rec *benchkit.Recorder) (*result, error) {
	// One unmeasured restart warms the page cache and the allocator.
	if _, err := w.restart(nil, 0); err != nil {
		return nil, err
	}
	mem0 := readMem()
	var reps []*recoveryRep
	var obsLast map[string]float64
	res := &result{layer: map[string]float64{}}
	start := time.Now()
	for time.Since(start) < window || len(reps) < 3 {
		rep, err := w.restart(rec, uint64(len(reps)+1))
		if err != nil {
			return nil, err
		}
		res.failed += w.check(rep)
		reps = append(reps, rep)
	}
	frames := int64(recoveryFeeds * w.perFeed)
	res.ops = frames * int64(len(reps))
	if rec != nil {
		// Each repetition is its own server with its own registry, so the
		// counters of one more (untimed) restart stand for a repetition.
		sv, err := startServing(w.fx.det, serveConfig(w.logDir, nil))
		if err != nil {
			return nil, err
		}
		for {
			obsLast = sv.metrics()
			if obsLast["server_frames_recovered_total"] >= float64(frames) {
				break
			}
			time.Sleep(recoveryPoll)
		}
		if err := sv.stop(); err != nil {
			return nil, err
		}
		serverLayer(res.layer, obsLast, 0)
		goLayer(res.layer, mem0, readMem(), res.ops+frames)
	}

	// The first feeds also against a full local replay of their log.
	ref, err := newReference(w.fx)
	if err != nil {
		return nil, err
	}
	defer ref.close()
	for f := 0; f < recoveryRefFeeds; f++ {
		var last stream.Decision
		if err := ref.replay(f, w.perFeed, func(_ int, d stream.Decision) { last = d }); err != nil {
			return nil, err
		}
		if !sameDecision(&w.first[f], w.perFeed-1, last) {
			res.failed++
		}
	}

	var wall, cpu []float64
	var timed []benchkit.Sample
	for _, r := range reps {
		ms := float64(r.wall) / float64(time.Millisecond)
		wall = append(wall, ms)
		cpu = append(cpu, float64(r.cpu)/float64(time.Microsecond))
		timed = append(timed, benchkit.Sample{At: r.at.Sub(start), V: ms})
	}
	res.p50ms = benchkit.Median(wall)
	// An upper quartile over all restarts is decided by a burst covering a
	// quarter of the window; the median of slice upper quartiles is not.
	var perSlice []int
	res.tailms, perSlice = benchkit.SliceQuantile(timed, window, recoverySlices, 0.75)
	res.throughput = float64(frames) / (res.p50ms / 1000)
	res.cpuUS = benchkit.Median(cpu) / float64(frames)
	res.primary = res.p50ms
	res.notes = append(res.notes,
		fmt.Sprintf("restart_recovery: %d feeds x %d logged frames, %d timed restarts (ms): %.0f", recoveryFeeds, w.perFeed, len(reps), wall),
		fmt.Sprintf("restart_recovery: latency_p50_ms is the median restart, latency_tail_ms the median over %d time slices of the slice's upper quartile (restarts per slice %v) — this many repetitions support nothing higher", recoverySlices, perSlice),
	)
	return res, nil
}
