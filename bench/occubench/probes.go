package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/bench/benchkit"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/drift"
	"repro/internal/fault"
	"repro/internal/framelog"
	"repro/internal/infer"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/stream"
	"repro/internal/tensor"
	"repro/pkg/occupancy"
)

// Layer probes push the same seeded frames through each layer's public
// entry point in isolation. Each figure is the median of p.rounds
// testing.Benchmark runs of about p.round each. The contract gives one
// traced run the time of an end-to-end run, so rounds are tens of
// milliseconds, not the second the issue sketched; per-layer metrics carry
// no bound, only a direction.

// perOp times fn(n) — n iterations of one operation — and returns the median
// nanoseconds per iteration over p.rounds benchmark runs.
func (p *prober) perOp(fn func(n int)) float64 {
	var per []float64
	for r := 0; r < p.rounds; r++ {
		res := testing.Benchmark(func(b *testing.B) { fn(b.N) })
		per = append(per, float64(res.T)/float64(res.N))
	}
	return benchkit.Median(per)
}

// constPredictor is the stub the stream and handler probes score with, so
// their figures hold the layer's own cost and no inference.
type constPredictor struct{}

func (constPredictor) PredictRecord(*dataset.Record) (float64, int) { return 0.75, 1 }

type prober struct {
	env *environment
	fx  *fixture
	out map[string]float64
	// x holds 256 standardised feature rows of bank records.
	x *tensor.Matrix
	// rounds x round is the time one probe gets; solo is how long the
	// one-feed ceiling is driven.
	rounds int
	round  time.Duration
	solo   time.Duration
}

// runProbes measures every probe-sourced per-layer metric.
func runProbes(env *environment) (map[string]float64, error) {
	fx, err := buildFixture(env)
	if err != nil {
		return nil, err
	}
	p := &prober{env: env, fx: fx, out: map[string]float64{}, rounds: 5, round: 30 * time.Millisecond, solo: 1500 * time.Millisecond}
	if env.smoke {
		p.rounds, p.round, p.solo = 2, 2*time.Millisecond, 200*time.Millisecond
	}
	// testing.Benchmark sizes its runs by the test binary's -benchtime flag.
	testing.Init()
	if err := flag.Set("test.benchtime", p.round.String()); err != nil {
		return nil, err
	}
	dim := fx.ref.Features.Dim()
	p.x = tensor.NewMatrix(256, dim)
	for i := 0; i < p.x.Rows; i++ {
		row := p.x.Row(i)
		dataset.FeatureRowInto(row, fx.bankRecord(0, i*7), fx.ref.Features)
		fx.ref.Scaler.TransformRow(row)
	}
	for _, step := range []func() error{
		p.codec, p.kernels, p.tensors, p.engine, p.streams, p.framelogs, p.small, p.fit, p.handler, p.serverProbes,
	} {
		if err := step(); err != nil {
			return nil, err
		}
	}
	return p.out, nil
}

func (p *prober) frames(n int) []occupancy.Frame {
	out := make([]occupancy.Frame, n)
	for i := range out {
		out[i] = p.fx.wireFrame(1, i)
	}
	return out
}

// codec: the JSON work on both ends of the wire.
func (p *prober) codec() error {
	req := server.IngestRequest{Frames: p.frames(256)}
	raw, err := json.Marshal(req)
	if err != nil {
		return err
	}
	p.out["occupancy.client_encode_us_per_frame"] = p.perOp(func(n int) {
		for i := 0; i < n; i++ {
			_, _ = json.Marshal(req) // cannot fail: it just succeeded above
		}
	}) / 256 / 1e3
	var decodeErr error
	p.out["server.decode_us_per_frame"] = p.perOp(func(n int) {
		for i := 0; i < n; i++ {
			var r server.IngestRequest
			if err := json.Unmarshal(raw, &r); err != nil {
				decodeErr = err
			}
		}
	}) / 256 / 1e3
	if decodeErr != nil {
		return decodeErr
	}
	ev := server.Event{
		Seq: 4711, Time: p.fx.bank[0].Time, P: 0.7312894, Pred: 1, State: 1, Mode: stream.ModePrimary.String(),
		ModelVersion: infer.BlobID([]byte("probe")),
	}
	enc := json.NewEncoder(io.Discard)
	p.out["server.event_encode_us"] = p.perOp(func(n int) {
		for i := 0; i < n; i++ {
			_ = enc.Encode(ev) // io.Discard never fails
		}
	}) / 1e3

	// DecisionStream.Next over a pre-filled body: a stand-in server answers
	// whatever path the client asks for with 2000 encoded events at once.
	const lines = 2000
	var body bytes.Buffer
	benc := json.NewEncoder(&body)
	for i := 0; i < lines; i++ {
		ev.Seq = int64(i)
		_ = benc.Encode(ev)
	}
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write(body.Bytes())
	}))
	defer fake.Close()
	cl, err := occupancy.NewClient(occupancy.ClientConfig{BaseURL: fake.URL, DisableRouting: true})
	if err != nil {
		return err
	}
	var per []float64
	for r := 0; r < p.rounds; r++ {
		st, err := cl.StreamDecisions(context.Background(), "probe", true)
		if err != nil {
			return err
		}
		t0 := time.Now()
		got := 0
		for {
			if _, err := st.Next(); err != nil {
				break
			}
			got++
		}
		d := time.Since(t0)
		_ = st.Close()
		if got != lines {
			return fmt.Errorf("stream probe read %d of %d events", got, lines)
		}
		per = append(per, float64(d)/float64(lines)/1e3)
	}
	p.out["occupancy.stream_next_us"] = benchkit.Median(per)
	return nil
}

// kernels: the three forward arenas, one row and batched, plus the feature
// extraction in front of them and the computed roofline base.
func (p *prober) kernels() error {
	net := p.fx.ref.Net
	f32net, err := nn.NewNetworkF32(net)
	if err != nil {
		return err
	}
	i8net, err := nn.NewNetworkI8(net)
	if err != nil {
		return err
	}
	a64, a32, a8 := nn.NewArena(net), nn.NewArenaF32(f32net), nn.NewArenaI8(i8net)
	x := p.x
	x16 := tensor.FromSlice(16, x.Cols, x.Data[:16*x.Cols])
	dst := make([]float64, x.Rows)
	var sink float64
	row := func(f func([]float64) float64) float64 {
		return p.perOp(func(n int) {
			for i := 0; i < n; i++ {
				sink += f(x.Row(i & 255))
			}
		}) / 1e3
	}
	batch := func(f func([]float64, *tensor.Matrix) []float64, m *tensor.Matrix) float64 {
		return p.perOp(func(n int) {
			for i := 0; i < n; i++ {
				f(dst[:m.Rows], m)
			}
		}) / float64(m.Rows) / 1e3
	}
	p.out["nn.f64_row_us"] = row(a64.PredictProb1)
	p.out["nn.f32_row_us"] = row(a32.PredictProb1)
	p.out["nn.i8_row_us"] = row(a8.PredictProb1)
	p.out["nn.f64_b256_us_per_row"] = batch(a64.PredictProbsInto, x)
	p.out["nn.f32_b256_us_per_row"] = batch(a32.PredictProbsInto, x)
	p.out["nn.i8_b256_us_per_row"] = batch(a8.PredictProbsInto, x)
	p.out["nn.f32_b16_us_per_row"] = batch(a32.PredictProbsInto, x16)
	_ = sink

	// Computed, not measured: multiply-adds of one forward row and the
	// bytes of weights it streams.
	flops := 0
	for _, w := range net.Params() {
		if w.Rows > 1 { // weight matrices are in x out, biases 1 x out
			flops += 2 * w.Rows * w.Cols
		}
	}
	p.out["nn.flops_per_row"] = float64(flops)
	p.out["nn.weight_bytes_f32"] = float64(f32net.SizeBytes())

	feat := make([]float64, x.Cols)
	p.out["core.feature_scale_us"] = p.perOp(func(n int) {
		for i := 0; i < n; i++ {
			dataset.FeatureRowInto(feat, p.fx.bankRecord(0, i), p.fx.ref.Features)
			p.fx.ref.Scaler.TransformRow(feat)
		}
	}) / 1e3
	return nil
}

// tensors: the matmul kernels at the three training shapes (batch 256).
func (p *prober) tensors() error {
	rng := rand.New(rand.NewSource(p.env.seed))
	mat := func(r, c int) *tensor.Matrix { return tensor.NewMatrix(r, c).RandomizeNormal(rng, 1) }
	const b = 256
	widths := [][2]int{{66, 128}, {128, 256}, {256, 128}}
	type shape struct{ x, w, dy, dx, dw, y *tensor.Matrix }
	var shapes []shape
	flops := 0.0
	for _, io := range widths {
		in, out := io[0], io[1]
		shapes = append(shapes, shape{
			x: mat(b, in), w: mat(in, out), dy: mat(b, out),
			y: tensor.NewMatrix(b, out), dw: tensor.NewMatrix(in, out), dx: tensor.NewMatrix(b, in),
		})
		flops += 2 * b * float64(in) * float64(out)
	}
	gflops := func(fn func(s shape)) float64 {
		ns := p.perOp(func(n int) {
			for i := 0; i < n; i++ {
				for _, s := range shapes {
					fn(s)
				}
			}
		})
		return flops / ns
	}
	p.out["tensor.matmul_f64_gflops"] = gflops(func(s shape) { tensor.MatMul(s.y, s.x, s.w) })          // forward: x·W
	p.out["tensor.matmul_atb_f64_gflops"] = gflops(func(s shape) { tensor.MatMulATB(s.dw, s.x, s.dy) }) // dW = xᵀ·dy
	p.out["tensor.matmul_abt_f64_gflops"] = gflops(func(s shape) { tensor.MatMulABT(s.dx, s.dy, s.w) }) // dx = dy·Wᵀ

	a32 := tensor.FromMatrixF32(mat(256, 256))
	b32 := tensor.FromMatrixF32(mat(256, 128))
	d32 := tensor.NewMatrixF32(256, 128)
	ns := p.perOp(func(n int) {
		for i := 0; i < n; i++ {
			tensor.MatMulF32(d32, a32, b32)
		}
	})
	p.out["tensor.matmul_f32_gflops"] = 2 * 256 * 256 * 128 / ns
	return nil
}

// engine: the batched inference engine as the server configures it — one
// caller (who pays the singleton straggler wait) and 16 / 64 callers.
func (p *prober) engine() error {
	eng, err := core.NewDetectorEngine(p.fx.ref, core.ServeConfig{Precision: occupancy.PrecisionF32})
	if err != nil {
		return err
	}
	defer eng.Close()
	p.out["core.engine_predict_c1_us"] = p.perOp(func(n int) {
		for i := 0; i < n; i++ {
			eng.PredictRecord(p.fx.bankRecord(0, i))
		}
	}) / 1e3
	concurrent := func(c int) float64 {
		var per []float64
		for r := 0; r < p.rounds; r++ {
			deadline := time.Now().Add(2 * p.round)
			var rows atomic.Int64
			var wg sync.WaitGroup
			t0 := time.Now()
			for g := 0; g < c; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					n := 0
					for i := 0; time.Now().Before(deadline); i++ {
						eng.PredictRecord(p.fx.bankRecord(g, i))
						n++
					}
					rows.Add(int64(n))
				}(g)
			}
			wg.Wait()
			per = append(per, float64(time.Since(t0))/float64(rows.Load())/1e3)
		}
		return benchkit.Median(per)
	}
	p.out["core.engine_predict_c16_us_per_row"] = concurrent(16)
	p.out["core.engine_predict_c64_us_per_row"] = concurrent(64)
	return nil
}

// streams: the per-feed runtime without inference, called directly and
// through its channel loop.
func (p *prober) streams() error {
	cfg := stream.Config{Primary: constPredictor{}, PrimaryUsesEnv: true}
	rt, err := stream.New(cfg)
	if err != nil {
		return err
	}
	frames := make([]fault.Frame, 512)
	for i := range frames {
		frames[i] = p.fx.logFrame(2, i)
	}
	next := 0
	self := p.perOp(func(n int) {
		for i := 0; i < n; i++ {
			f := frames[next&511]
			f.Index = next
			next++
			rt.Process(f)
		}
	})
	p.out["stream.process_self_us"] = self / 1e3

	var runErr error
	loop := p.perOp(func(n int) {
		rt, err := stream.New(cfg)
		if err != nil {
			runErr = err
			return
		}
		// The buffer is the server's default per-feed queue depth.
		ch := make(chan fault.Frame, 256)
		go func() {
			for i := 0; i < n; i++ {
				f := frames[i&511]
				f.Index = i
				ch <- f
			}
			close(ch)
		}()
		if err := rt.Run(context.Background(), ch, func(fault.Frame, stream.Decision) error { return nil }); err != nil {
			runErr = err
		}
	})
	p.out["stream.run_hop_us"] = (loop - self) / 1e3
	return runErr
}

// framelogs: the durable log's write path with fsync off, its sync on the
// log filesystem, and its two read passes.
func (p *prober) framelogs() error {
	dir, err := p.env.newDir("flog")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	off := framelog.Config{Dir: dir, Fsync: framelog.FsyncOff}
	var opErr error
	keep := func(err error) {
		if err != nil && opErr == nil {
			opErr = err
		}
	}

	w1, _, err := framelog.Open(off, "b1")
	if err != nil {
		return err
	}
	f := p.fx.logFrame(3, 0)
	p.out["framelog.append_b1_us"] = p.perOp(func(n int) {
		for i := 0; i < n; i++ {
			keep(w1.Append(&f))
			f.Index++
		}
	}) / 1e3
	keep(w1.Close())

	w256, _, err := framelog.Open(off, "b256")
	if err != nil {
		return err
	}
	batch := make([]fault.Frame, 256)
	for i := range batch {
		batch[i] = p.fx.logFrame(3, i)
	}
	p.out["framelog.append_b256_us_per_frame"] = p.perOp(func(n int) {
		for i := 0; i < n; i++ {
			_, err := w256.AppendBatch(batch)
			keep(err)
			for j := range batch {
				batch[j].Index += len(batch)
			}
		}
	}) / 256 / 1e3
	keep(w256.Close())

	// Flush after one appended frame, under the serving fsync policy.
	ws, _, err := framelog.Open(framelog.Config{Dir: dir}, "sync")
	if err != nil {
		return err
	}
	var syncs []float64
	for i := 0; i < 10*p.rounds; i++ {
		keep(ws.Append(&f))
		f.Index++
		t0 := time.Now()
		keep(ws.Flush())
		syncs = append(syncs, float64(time.Since(t0))/1e3)
	}
	keep(ws.Close())
	p.out["framelog.sync_us"] = benchkit.Median(syncs)

	// Open scan and Replay over one recovery-sized log.
	const logged = recoveryPerFeed
	wr, _, err := framelog.Open(off, "scan")
	if err != nil {
		return err
	}
	for k := 0; k < logged; k += len(batch) {
		for j := range batch {
			batch[j] = p.fx.logFrame(4, k+j)
		}
		n := len(batch)
		if k+n > logged {
			n = logged - k
		}
		_, err := wr.AppendBatch(batch[:n])
		keep(err)
	}
	keep(wr.Close())
	var opens, replays []float64
	for r := 0; r < p.rounds; r++ {
		t0 := time.Now()
		w, rec, err := framelog.Open(off, "scan")
		d := time.Since(t0)
		if err != nil {
			return err
		}
		keep(w.Close())
		if rec.Frames != logged {
			return fmt.Errorf("framelog probe: Open found %d of %d frames", rec.Frames, logged)
		}
		opens = append(opens, float64(d)/logged/1e3)

		t0 = time.Now()
		n, err := framelog.Replay(dir, "scan", -1, func(fault.Frame) error { return nil })
		d = time.Since(t0)
		if err != nil || n != logged {
			return fmt.Errorf("framelog probe: Replay delivered %d of %d frames: %v", n, logged, err)
		}
		replays = append(replays, float64(d)/logged/1e3)
	}
	p.out["framelog.open_scan_us_per_frame"] = benchkit.Median(opens)
	p.out["framelog.replay_us_per_frame"] = benchkit.Median(replays)
	return opErr
}

// small: nanosecond-scale calls that sit on every served frame's path (or,
// for drift, would if it were switched on), and the simulator.
func (p *prober) small() error {
	reg := infer.NewRegistry(nil)
	v, _, err := reg.Install([]byte("probe bundle"), func([]byte) (any, error) { return constPredictor{}, nil })
	if err != nil {
		return err
	}
	if _, err := reg.Activate(v.ID()); err != nil {
		return err
	}
	var hits int
	p.out["infer.registry_resolve_ns"] = p.perOp(func(n int) {
		for i := 0; i < n; i++ {
			if reg.ResolveFor("feed-000") != nil {
				hits++
			}
		}
	})

	det, err := drift.New(drift.Config{Baseline: 512, Window: 256})
	if err != nil {
		return err
	}
	p.out["drift.observe_ns"] = p.perOp(func(n int) {
		for i := 0; i < n; i++ {
			det.Observe(float64(i&1023) / 1024)
		}
	})

	oreg := obs.NewRegistry()
	c := oreg.Counter("bench_probe_total", "probe counter")
	h := oreg.Histogram("bench_probe_seconds", "probe histogram", obs.ExpBuckets(1e-4, 4, 10))
	p.out["obs.counter_inc_ns"] = p.perOp(func(n int) {
		for i := 0; i < n; i++ {
			c.Inc()
		}
	})
	p.out["obs.histogram_observe_ns"] = p.perOp(func(n int) {
		for i := 0; i < n; i++ {
			h.Observe(float64(i&1023) * 1e-5)
		}
	})

	gen := dataset.DefaultGenConfig(2, p.env.seed+3)
	gen.Duration = 10 * time.Minute
	var genErr error
	records := gen.Duration.Seconds() * gen.Rate
	p.out["dataset.generate_us_per_record"] = p.perOp(func(n int) {
		for i := 0; i < n; i++ {
			if _, err := dataset.Generate(gen); err != nil {
				genErr = err
			}
		}
	}) / records / 1e3
	return genErr
}

// fit: one steady-state training epoch (the second of two) over 11 full
// batches of bank records, and what it allocates per batch.
func (p *prober) fit() error {
	batches := 11
	if n := len(p.fx.bank) / 256; n < batches {
		batches = n // the smoke bank is shorter
	}
	ds := &dataset.Dataset{Records: p.fx.bank[:batches*256]}
	var epochMs, allocs []float64
	for r := 0; r < 3; r++ {
		cfg := core.DefaultDetectorConfig()
		cfg.Train.Epochs = 2
		var t0 time.Time
		var m0 runtime.MemStats
		cfg.Train.OnEpoch = func(epoch int, _ float64) {
			if epoch == 0 {
				runtime.ReadMemStats(&m0)
				t0 = time.Now()
				return
			}
			d := time.Since(t0)
			var m1 runtime.MemStats
			runtime.ReadMemStats(&m1)
			epochMs = append(epochMs, float64(d)/1e6)
			allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/float64(batches))
		}
		if _, err := core.TrainDetector(ds, cfg); err != nil {
			return err
		}
	}
	p.out["nn.fit_epoch_ms"] = benchkit.Median(epochMs)
	p.out["nn.fit_allocs_per_batch"] = benchkit.Median(allocs)
	return nil
}

// handlerTransport hands the client's requests straight to an http.Handler
// with an in-memory recorder and keeps the time spent inside ServeHTTP. It
// lets the probe reach the ingest handler through occupancy.Client — the
// only code allowed to spell the wire paths — without a socket.
type handlerTransport struct {
	h       http.Handler
	elapsed time.Duration
	calls   int
}

func (t *handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t0 := time.Now()
	t.h.ServeHTTP(rec, req)
	t.elapsed += time.Since(t0)
	t.calls++
	return rec.Result(), nil
}

// handler: the ingest handler alone — decode, validate, enqueue — on a
// non-durable server whose feeds score with the stub.
func (p *prober) handler() error {
	srv, err := server.New(server.Config{Primary: constPredictor{}, PrimaryUsesEnv: true, QueueDepth: 4096})
	if err != nil {
		return err
	}
	defer srv.Close()
	tr := &handlerTransport{h: srv.Handler()}
	cl, err := occupancy.NewClient(occupancy.ClientConfig{
		BaseURL: "http://handler.invalid", HTTPClient: &http.Client{Transport: tr}, DisableRouting: true,
	})
	if err != nil {
		return err
	}
	ctx := context.Background()
	ids := make([]string, 16)
	for i := range ids {
		ids[i] = fmt.Sprintf("handler-%02d", i)
		if _, err := cl.RegisterFeed(ctx, ids[i]); err != nil {
			return err
		}
	}
	// calls per round are fixed so a round lasts tens of milliseconds at
	// either batch size; the transport's clock, not the wall, is the figure.
	probe := func(frames []occupancy.Frame, calls int) (float64, error) {
		var per []float64
		for r := 0; r < p.rounds; r++ {
			tr.elapsed, tr.calls = 0, 0
			for i := 0; i < calls; i++ {
				if _, err := cl.Ingest(ctx, ids[i&15], frames); err != nil {
					return 0, err
				}
			}
			per = append(per, float64(tr.elapsed)/float64(tr.calls)/1e3)
		}
		return benchkit.Median(per), nil
	}
	b1, err := probe(p.frames(1), 1024)
	if err != nil {
		return err
	}
	b256, err := probe(p.frames(256), 8)
	if err != nil {
		return err
	}
	p.out["server.ingest_handler_b1_us"] = b1
	p.out["server.ingest_handler_b256_us_per_frame"] = b256 / 256
	return nil
}

// serverProbes: the full serving stack on a quiet machine — boot time,
// Ingest round trips, what an idle feed costs, and the one-feed ceiling the
// engine's singleton wait imposes.
func (p *prober) serverProbes() error {
	ctx := context.Background()
	var boots []float64
	for r := 0; r < p.rounds; r++ {
		dir, err := p.env.newDir("boot")
		if err != nil {
			return err
		}
		cfg := serveConfig(dir, nil)
		t0 := time.Now()
		srv, err := occupancy.NewServer(p.fx.det, cfg)
		d := time.Since(t0)
		if err != nil {
			return err
		}
		boots = append(boots, float64(d)/1e6)
		// Run with a finished context only drains and releases the listener.
		done, cancel := context.WithCancel(ctx)
		cancel()
		if err := srv.Run(done); err != nil {
			return err
		}
		_ = os.RemoveAll(dir)
	}
	p.out["occupancy.server_boot_ms"] = benchkit.Median(boots)

	dir, err := p.env.newDir("probe-log")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	sv, err := startServing(p.fx.det, serveConfig(dir, nil))
	if err != nil {
		return err
	}
	defer sv.stop()
	cl := sv.cl
	ids := make([]string, 16)
	sent := 0
	for i := range ids {
		ids[i] = fmt.Sprintf("rtt-%02d", i)
		if _, err := cl.RegisterFeed(ctx, ids[i]); err != nil {
			return err
		}
	}
	settle := func() error {
		giveUp := time.Now().Add(20 * time.Second)
		for sv.metrics()["server_decisions_total"] < float64(sent) {
			if time.Now().After(giveUp) {
				return errors.New("probe server did not decide its frames within 20 s")
			}
			time.Sleep(2 * time.Millisecond)
		}
		return nil
	}
	rtt := func(frames []occupancy.Frame, rounds int) (float64, error) {
		var ms []float64
		for r := 0; r < rounds; r++ {
			for _, id := range ids {
				t0 := time.Now()
				n, err := cl.Ingest(ctx, id, frames)
				ms = append(ms, float64(time.Since(t0))/1e6)
				sent += n
				if err != nil {
					return 0, err
				}
			}
			if err := settle(); err != nil {
				return 0, err
			}
		}
		return benchkit.Median(ms), nil
	}
	if p.out["occupancy.ingest_rtt_b1_ms"], err = rtt(p.frames(1), 12); err != nil {
		return err
	}
	if p.out["occupancy.ingest_rtt_b256_ms"], err = rtt(p.frames(256), p.rounds); err != nil {
		return err
	}

	// 256 registered feeds that never send a frame.
	runtime.GC()
	g0, rss0 := runtime.NumGoroutine(), benchkit.RSSKB()
	const idle = 256
	for i := 0; i < idle; i++ {
		if _, err := cl.RegisterFeed(ctx, fmt.Sprintf("idle-%03d", i)); err != nil {
			return err
		}
	}
	runtime.GC()
	p.out["server.goroutines_per_feed"] = float64(runtime.NumGoroutine()-g0) / idle
	p.out["server.rss_kb_per_idle_feed"] = float64(benchkit.RSSKB()-rss0) / idle

	// One feed driven flat out: every frame is a singleton at the engine.
	if _, err := cl.RegisterFeed(ctx, "solo"); err != nil {
		return err
	}
	batch := p.frames(256)
	d0, t0 := sv.metrics()["server_decisions_total"], time.Now()
	for time.Since(t0) < p.solo {
		tctx, cancel := context.WithDeadline(ctx, t0.Add(p.solo))
		_, _ = cl.Ingest(tctx, "solo", batch) // pressure and the deadline are the point
		cancel()
	}
	d1, t1 := sv.metrics()["server_decisions_total"], time.Now()
	p.out["server.single_feed_frames_per_s"] = (d1 - d0) / t1.Sub(t0).Seconds()
	return cl.CloseFeed(ctx, "solo")
}
