package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/bench/benchkit"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fault"
	"repro/internal/stream"
	"repro/pkg/occupancy"
)

// environment is the per-run record: what machine and settings the numbers
// were taken on, and where the run may write.
type environment struct {
	workload   string
	seed       int64
	seconds    float64
	traced     bool
	smoke      bool
	nproc      int
	gomaxprocs int
	// scratch is this run's private directory for frame logs and the
	// model bundle, removed at exit. It is on /dev/shm when that is
	// writable — the production log path, fsync calls included, still
	// runs, but device latency (the largest noise source found while
	// sizing) stays out of the numbers — and inside the benchmark's own
	// out/ directory otherwise.
	scratch string
	tmpfs   bool
	outDir  string
	seq     int
	// warmup is excluded from every metric of the time-driven workloads;
	// the repetition-driven ones run one unmeasured repetition instead.
	warmup time.Duration
}

// benchDir locates bench/ from the working directory: `go run -C bench`
// starts the program inside it, a hand-run binary usually sits at the
// repository root, and `go test` runs in the package directory.
func benchDir() string {
	for _, d := range []string{".", "bench", ".."} {
		if _, err := os.Stat(filepath.Join(d, "occubench", "main.go")); err == nil {
			return d
		}
	}
	return "."
}

func newEnvironment(workload string, seed int64, seconds float64, traced, smoke bool) (*environment, error) {
	nproc := runtime.NumCPU()
	procs := nproc
	if procs > 4 {
		procs = 4
	}
	runtime.GOMAXPROCS(procs)
	env := &environment{
		workload: workload, seed: seed, seconds: seconds, traced: traced, smoke: smoke,
		nproc: nproc, gomaxprocs: procs,
		outDir: filepath.Join(benchDir(), "out"),
		warmup: 2 * time.Second,
	}
	if smoke {
		env.warmup = 500 * time.Millisecond
	}
	if dir, err := os.MkdirTemp("/dev/shm", "occubench-"); err == nil {
		env.scratch = dir
	} else {
		if err := os.MkdirAll(env.outDir, 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(env.outDir, "scratch-")
		if err != nil {
			return nil, err
		}
		env.scratch = dir
	}
	env.tmpfs = benchkit.IsTmpfs(env.scratch)
	return env, nil
}

func (e *environment) cleanup() { _ = os.RemoveAll(e.scratch) }

// newDir returns a fresh empty directory under the run's scratch space.
func (e *environment) newDir(prefix string) (string, error) {
	e.seq++
	dir := filepath.Join(e.scratch, fmt.Sprintf("%s-%d", prefix, e.seq))
	return dir, os.MkdirAll(dir, 0o755)
}

// outFile returns a path under bench/out for an artefact that outlives the
// run (the span files).
func (e *environment) outFile(name string) (string, error) {
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return "", err
	}
	return filepath.Join(e.outDir, name), nil
}

func (e *environment) print() {
	fs := "not tmpfs"
	if e.tmpfs {
		fs = "tmpfs"
	}
	fmt.Printf("env: workload=%s seed=%d seconds=%g trace=%v smoke=%v\n", e.workload, e.seed, e.seconds, e.traced, e.smoke)
	fmt.Printf("env: nproc=%d GOMAXPROCS=%d %s kernel=%q\n", e.nproc, e.gomaxprocs, runtime.Version(), occupancy.KernelDescription())
	fmt.Printf("env: precision=%s fsync=interval(100ms default) log_dir=%s (%s)\n", occupancy.PrecisionF32, e.scratch, fs)
	fmt.Printf("env: warm-up=%v, one set-up per run\n", e.warmup)
}

// fixture is the common set-up of every workload that serves or replays:
// the seeded frame bank, one trained C+E detector, and the same detector
// reloaded from its saved bundle (the weights a server actually serves, and
// therefore the ones the local reference must score with).
type fixture struct {
	bank []dataset.Record
	det  *occupancy.Detector
	ref  *core.Detector
}

// Fixture sizes. The smoke variant only has to exercise the code.
func (e *environment) bankHours() time.Duration {
	if e.smoke {
		return 20 * time.Minute
	}
	return 2 * time.Hour
}

func (e *environment) trainHours() int {
	if e.smoke {
		return 1
	}
	return 6
}

// dataRooms is how many rooms every generated data set is drawn from. The
// generator gives a seed one room (one multipath channel), and how many
// hidden units a room's frames switch on decides what the zero-skipping
// kernels cost: with one trained model the batched f32 forward pass read
// 2.56-3.68 us a row over ten one-room banks and 3.05-3.27 us over ten
// sixteen-room banks. The driver runs every seed once, so a one-room data
// set turns that into run-to-run spread.
const dataRooms = 16

// generateRooms covers `total` from the paper's start time at `rate` Hz,
// one equal stretch per room in time order, each room with its own seed
// derived from `seed`.
func generateRooms(rate float64, seed int64, total time.Duration) (*dataset.Dataset, error) {
	part := total / dataRooms
	ds := &dataset.Dataset{}
	for r := 0; r < dataRooms; r++ {
		gen := dataset.DefaultGenConfig(rate, seed*dataRooms+int64(r))
		gen.Start = gen.Start.Add(time.Duration(r) * part)
		gen.Duration = part
		room, err := dataset.Generate(gen)
		if err != nil {
			return nil, err
		}
		ds.Records = append(ds.Records, room.Records...)
	}
	return ds, nil
}

func buildFixture(env *environment) (*fixture, error) {
	// On one processor, like the repetitions of train_offline and for the
	// same reason: occupancy.Train is most of setup_s, and over ten
	// alternating pairs of runs setup_s spread (IQR over median) 27 % with
	// the training on two shared vCPUs and 5.5 % on one, for 0.3 s more.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ds, err := generateRooms(2, env.seed, env.bankHours())
	if err != nil {
		return nil, err
	}
	det, err := occupancy.Train(occupancy.TrainConfig{
		Features:       occupancy.FeaturesCSIEnv,
		Epochs:         2,
		SyntheticHours: env.trainHours(),
		Seed:           env.seed*7919 + 17,
	})
	if err != nil {
		return nil, err
	}
	dir, err := env.newDir("model")
	if err != nil {
		return nil, err
	}
	bundle := filepath.Join(dir, "detector.bin")
	if err := det.Save(bundle); err != nil {
		return nil, err
	}
	ref, err := core.LoadDetectorFile(bundle)
	if err != nil {
		return nil, err
	}
	return &fixture{bank: ds.Records, det: det, ref: ref}, nil
}

// bankRecord is the deterministic k-th record of feed f: each feed walks
// the bank from its own offset, so feeds never send identical streams. The
// stride is about one room of the bank (900 records), so sixteen feeds start
// in sixteen rooms.
func (fx *fixture) bankRecord(f, k int) *dataset.Record {
	return &fx.bank[(f*907+k)%len(fx.bank)]
}

// wireFrame is that record exactly as the wire carries it.
func (fx *fixture) wireFrame(f, k int) occupancy.Frame {
	r := fx.bankRecord(f, k)
	return occupancy.Frame{Time: r.Time, CSI: r.CSI[:], Temp: r.Temp, Humidity: r.Humidity}
}

// logFrame mirrors the server-side conversion of wireFrame (and is what the
// durable log holds for it).
func (fx *fixture) logFrame(f, k int) fault.Frame {
	r := *fx.bankRecord(f, k)
	return fault.Frame{Rec: r, Truth: r, Index: k, EnvOK: true}
}

// reference scores frames the way the server must: a stream.Runtime per
// feed over a DetectorEngine built from the reloaded bundle at f32. The
// engine never waits for company (MaxDelay < 0): a score does not depend on
// batching, and verification should not pay 2 ms per frame.
type reference struct {
	fx  *fixture
	eng *core.DetectorEngine
}

func newReference(fx *fixture) (*reference, error) {
	eng, err := core.NewDetectorEngine(fx.ref, core.ServeConfig{Precision: occupancy.PrecisionF32, MaxDelay: -1})
	if err != nil {
		return nil, err
	}
	return &reference{fx: fx, eng: eng}, nil
}

func (r *reference) close() { r.eng.Close() }

// replay runs feed f's first n frames through a fresh runtime and calls fn
// with each decision.
func (r *reference) replay(f, n int, fn func(k int, d stream.Decision)) error {
	rt, err := stream.New(stream.Config{Primary: r.eng, PrimaryUsesEnv: true})
	if err != nil {
		return err
	}
	for k := 0; k < n; k++ {
		fn(k, rt.Process(r.fx.logFrame(f, k)))
	}
	return nil
}

// sameDecision is the loadgen -http contract: sequence, probability bit for
// bit, label, announced state and serving mode.
func sameDecision(ev *occupancy.Decision, k int, d stream.Decision) bool {
	return ev.Seq == int64(k) && math.Float64bits(ev.P) == math.Float64bits(d.P) &&
		ev.Pred == d.Pred && ev.State == d.State && ev.Mode == d.Mode.String()
}

// mismatches compares a feed's streamed decisions with the reference and
// returns how many of the n expected decisions are missing or different.
func (r *reference) mismatches(f int, got []occupancy.Decision, n int) (int, error) {
	bad := 0
	if len(got) < n {
		bad += n - len(got)
		n = len(got)
	}
	err := r.replay(f, n, func(k int, d stream.Decision) {
		if !sameDecision(&got[k], k, d) {
			bad++
		}
	})
	return bad, err
}

// mismatchesAll verifies several feeds in parallel: got[i] holds the streamed
// decisions of feed feeds[i], of which want[i] are expected. It returns the
// total number of missing or different decisions.
func (r *reference) mismatchesAll(feeds []int, got [][]occupancy.Decision, want []int) (int64, error) {
	bad := make([]int, len(feeds))
	errs := make([]error, len(feeds))
	var wg sync.WaitGroup
	for i := range feeds {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			bad[i], errs[i] = r.mismatches(feeds[i], got[i], want[i])
		}(i)
	}
	wg.Wait()
	var total int64
	for i := range feeds {
		if errs[i] != nil {
			return 0, errs[i]
		}
		total += int64(bad[i])
	}
	return total, nil
}

// pressureCounter is the HTTP transport the benchmark's client uses: it
// counts the pressure answers (429, 500, 503) occupancy.Client.Ingest rides
// out, which the client itself does not expose.
type pressureCounter struct {
	next     http.RoundTripper
	pressure atomic.Int64
}

func (p *pressureCounter) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := p.next.RoundTrip(req)
	if err == nil {
		switch resp.StatusCode {
		case http.StatusTooManyRequests, http.StatusInternalServerError, http.StatusServiceUnavailable:
			p.pressure.Add(1)
		}
	}
	return resp, err
}

// serving is one running occupancy.Server plus the client that drives it.
type serving struct {
	srv     *occupancy.Server
	cl      *occupancy.Client
	counter *pressureCounter
	cancel  context.CancelFunc
	done    chan error
	tr      *http.Transport
}

// serveConfig is the one configuration every workload serves with; tweak
// adjusts the fields a workload documents as different.
func serveConfig(logDir string, tweak func(*occupancy.ServeConfig)) occupancy.ServeConfig {
	cfg := occupancy.ServeConfig{
		Addr:       "127.0.0.1:0",
		Precision:  occupancy.PrecisionF32,
		Durability: occupancy.DurabilityConfig{Dir: logDir},
	}
	if tweak != nil {
		tweak(&cfg)
	}
	return cfg
}

// startServing boots the server and a client with one keep-alive pool.
func startServing(det *occupancy.Detector, cfg occupancy.ServeConfig) (*serving, error) {
	srv, err := occupancy.NewServer(det, cfg)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &serving{srv: srv, cancel: cancel, done: make(chan error, 1)}
	go func() { s.done <- srv.Run(ctx) }()
	s.tr = &http.Transport{MaxIdleConns: 256, MaxIdleConnsPerHost: 256}
	s.counter = &pressureCounter{next: s.tr}
	s.cl, err = occupancy.NewClient(occupancy.ClientConfig{
		BaseURL:    srv.URL(),
		HTTPClient: &http.Client{Transport: s.counter},
		// A standalone server has no shard map to fetch.
		DisableRouting: true,
		// Pressure answers suggest 1 s; a closed-loop sender that slept
		// that long would measure its own nap.
		MaxRetryWait: 20 * time.Millisecond,
		MaxRetries:   500,
	})
	if err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// served is the set-up the two HTTP workloads share: the fixture, the local
// reference, and a server on a fresh log directory.
type served struct {
	env    *environment
	fx     *fixture
	ref    *reference
	sv     *serving
	logDir string
}

func (s *served) setup(env *environment, tweak func(*occupancy.ServeConfig)) error {
	s.env = env
	var err error
	if s.fx, err = buildFixture(env); err != nil {
		return err
	}
	if s.ref, err = newReference(s.fx); err != nil {
		return err
	}
	if s.logDir, err = env.newDir("log"); err != nil {
		return err
	}
	s.sv, err = startServing(s.fx.det, serveConfig(s.logDir, tweak))
	return err
}

func (s *served) teardown() {
	if s.sv != nil {
		_ = s.sv.stop()
		s.sv = nil
	}
	if s.ref != nil {
		s.ref.close()
		s.ref = nil
	}
	_ = os.RemoveAll(s.logDir)
}

// stop drains the server and waits until Run has returned.
func (s *serving) stop() error {
	s.cancel()
	var err error
	select {
	case err = <-s.done:
	case <-time.After(30 * time.Second):
		err = errors.New("server did not drain within 30 s")
	}
	if s.tr != nil {
		s.tr.CloseIdleConnections()
	}
	return err
}

// metrics parses the server's obs exposition.
func (s *serving) metrics() map[string]float64 { return benchkit.ParseProm(s.srv.Metrics()) }

// serverLayer turns an obs delta into the per-layer counters every serving
// workload reports.
func serverLayer(layer, d map[string]float64, retries int64) {
	layer["occupancy.ingest_retries"] = float64(retries)
	layer["server.queue_full_rejected"] = d["server_rejected_queue_full_total"]
	layer["server.events_dropped"] = d["server_stream_events_dropped_total"]
	layer["framelog.appends"] = d["framelog_appends_total"]
	layer["framelog.fsyncs"] = d["framelog_fsyncs_total"]
	if n := d["infer_batch_size_count"]; n > 0 {
		layer["infer.batch_size_mean"] = d["infer_batch_size_sum"] / n
	}
	if n := d["infer_batches_total"]; n > 0 {
		layer["infer.fast_path_share"] = d["infer_fast_path_total"] / n
	}
}

// notApplicable lists the workload-sourced per-layer metrics the workload
// has no source for (no server, no generator). They print as "n/a"; the JSON
// result line has to carry a number for every per_layer metric and carries 0.
func notApplicable(layer map[string]float64) []string {
	var na []string
	for _, k := range []string{
		"occupancy.ingest_retries", "server.queue_full_rejected", "server.events_dropped",
		"framelog.appends", "framelog.fsyncs", "infer.batch_size_mean", "infer.fast_path_share",
		"gen.late_p99_ms", "gen.late_max_ms",
	} {
		if _, ok := layer[k]; !ok {
			na = append(na, k)
		}
	}
	return na
}
