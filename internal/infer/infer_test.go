package infer

import (
	"go/parser"
	"go/token"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cpukit"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// testNet builds a small MLP plus a bank of feature rows and the reference
// (serial PredictProbs) score for each row.
func testNet(t testing.TB, rows int) (*nn.Network, [][]float64, []float64) {
	rng := rand.New(rand.NewSource(31))
	net := nn.NewMLP(24, []int{32, 16}, 1, rng)
	x := tensor.NewMatrix(rows, 24).RandomizeNormal(rng, 1)
	want := net.PredictProbs(x)
	rs := make([][]float64, rows)
	for i := range rs {
		rs[i] = x.Row(i)
	}
	return net, rs, want
}

// f64Scorers is NetworkScorerAt at f64 for tests: a refusal fails the test.
func f64Scorers(t testing.TB, net *nn.Network) func() Scorer {
	newScorer, err := NetworkScorerAt(net, PrecisionF64)
	if err != nil {
		t.Fatal(err)
	}
	return newScorer
}

// TestEngineBitIdentical is the acceptance guarantee: for any arena count
// and dozens of concurrent callers — i.e. any interleaving of who holds
// which arena — every row scores bit-identically to the direct serial
// PredictProbs path. Run under -race this also proves the engine's memory
// discipline.
func TestEngineBitIdentical(t *testing.T) {
	net, rows, want := testNet(t, 64)
	for _, workers := range []int{1, 2, 8} {
		reg := obs.NewRegistry()
		eng, err := New(Config{NewScorer: f64Scorers(t, net), Workers: workers, Observer: reg})
		if err != nil {
			t.Fatal(err)
		}
		const feeds = 32
		var wg sync.WaitGroup
		for f := 0; f < feeds; f++ {
			wg.Add(1)
			go func(f int) {
				defer wg.Done()
				// Each feed walks the row bank from its own offset so the
				// engine sees interleaved, repeating traffic.
				for k := 0; k < 3*len(rows); k++ {
					i := (f + k) % len(rows)
					if p := eng.Predict(rows[i]); p != want[i] {
						t.Errorf("workers=%d: row %d scored %v, want %v", workers, i, p, want[i])
						return
					}
				}
			}(f)
		}
		wg.Wait()
		eng.Close()
		if want, got := int64(feeds*3*len(rows)), reg.Counter("infer_requests_total", "").Value(); got != want {
			t.Fatalf("workers=%d: counters lost requests: %d != %d", workers, got, want)
		}
	}
}

// gateScorer is a fake Scorer that counts how many goroutines are inside
// PredictProb1 at once, reports each entry, and holds every caller until
// released.
type gateScorer struct {
	inside, peak atomic.Int32
	entered      chan struct{} // one send per PredictProb1 entry
	release      chan struct{} // one receive per PredictProb1 exit; closed = open gate
}

func (s *gateScorer) InputDim() int { return 1 }
func (s *gateScorer) PredictProb1(row []float64) float64 {
	n := s.inside.Add(1)
	for {
		p := s.peak.Load()
		if n <= p || s.peak.CompareAndSwap(p, n) {
			break
		}
	}
	s.entered <- struct{}{}
	<-s.release
	s.inside.Add(-1)
	return row[0]
}

// newGateEngine builds an engine whose scorers all share one gate.
func newGateEngine(t *testing.T, workers, callers int) (*Engine, *gateScorer) {
	t.Helper()
	g := &gateScorer{
		entered: make(chan struct{}, callers), // every caller can report entry without blocking
		release: make(chan struct{}),
	}
	eng, err := New(Config{NewScorer: func() Scorer { return g }, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return eng, g
}

// stillBlocked yields the processor repeatedly, giving a goroutine that
// should be blocked every chance to run, and fails if done fires anyway.
func stillBlocked(t *testing.T, done <-chan struct{}, what string) {
	t.Helper()
	for i := 0; i < 100; i++ {
		runtime.Gosched()
		select {
		case <-done:
			t.Fatal(what)
		default:
		}
	}
}

// TestEngineBoundsConcurrency: Workers is a hard bound on concurrent scores.
// With every scorer holding its caller, exactly Workers of many callers get
// in; the rest enter only as holders are released, one for one.
func TestEngineBoundsConcurrency(t *testing.T) {
	const workers, callers = 3, 24
	eng, g := newGateEngine(t, workers, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			if p := eng.Predict([]float64{float64(c)}); p != float64(c) {
				t.Errorf("caller %d scored %v", c, p)
			}
		}(c)
	}
	for i := 0; i < workers; i++ {
		<-g.entered
	}
	for i := workers; i < callers; i++ {
		stillBlocked(t, g.entered, "a caller entered with all scorers held")
		g.release <- struct{}{}
		<-g.entered
	}
	close(g.release)
	wg.Wait()
	eng.Close()
	if peak := g.peak.Load(); peak != workers {
		t.Fatalf("peak concurrent scores %d, want exactly Workers=%d", peak, workers)
	}
}

// TestEngineSingleWorkerSerialises: with Workers 1, a second Predict
// completes only after the first is released.
func TestEngineSingleWorkerSerialises(t *testing.T) {
	eng, g := newGateEngine(t, 1, 2)
	defer eng.Close()
	first, second := make(chan struct{}), make(chan struct{})
	go func() { eng.Predict([]float64{1}); close(first) }()
	<-g.entered // the first caller holds the only scorer
	go func() { eng.Predict([]float64{2}); close(second) }()
	stillBlocked(t, g.entered, "second Predict entered the scorer while the first held it")
	g.release <- struct{}{}
	<-first
	<-g.entered // only now does the second get in
	stillBlocked(t, second, "second Predict completed before it was released")
	g.release <- struct{}{}
	<-second
	if peak := g.peak.Load(); peak != 1 {
		t.Fatalf("peak concurrent scores %d with Workers 1", peak)
	}
}

// TestEngineCloseWaitsForInFlight: Close returns only after an in-flight
// Predict has finished, and a Predict after Close panics with a message
// instead of blocking.
func TestEngineCloseWaitsForInFlight(t *testing.T) {
	eng, g := newGateEngine(t, 2, 1)
	predicted, closed := make(chan struct{}), make(chan struct{})
	go func() { eng.Predict([]float64{1}); close(predicted) }()
	<-g.entered
	go func() { eng.Close(); close(closed) }()
	stillBlocked(t, closed, "Close returned with a Predict in flight")
	g.release <- struct{}{}
	<-predicted
	<-closed

	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "closed Engine") {
			t.Fatalf("Predict after Close: recovered %q, want a closed-engine panic", msg)
		}
	}()
	eng.Predict([]float64{1})
	t.Fatal("Predict after Close returned")
}

// TestNoClockInEngine keeps the clock-free property from creeping back: no
// non-test file of this package may import "time". The engine has nothing
// to wait for — a timer here is the straggler wait returning.
func TestNoClockInEngine(t *testing.T) {
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if imp.Path.Value == `"time"` {
				t.Errorf("%s imports time; internal/infer must stay clock-free", fset.Position(imp.Pos()))
			}
		}
	}
}

// TestEngineConfigErrors covers constructor validation.
func TestEngineConfigErrors(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("expected error without NewScorer")
	}
	if _, err := New(Config{NewScorer: func() Scorer { return nil }}); err == nil {
		t.Fatal("expected error on nil scorer")
	}
}

// identityScorer scores a one-wide row as its only element.
type identityScorer struct{}

func (identityScorer) InputDim() int                      { return 1 }
func (identityScorer) PredictProb1(row []float64) float64 { return row[0] }

func newIdentityScorer() Scorer { return identityScorer{} }

// TestPredictLabel checks the threshold helper.
func TestPredictLabel(t *testing.T) {
	eng, err := New(Config{NewScorer: newIdentityScorer, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if p, l := eng.PredictLabel([]float64{0.75}); p != 0.75 || l != 1 {
		t.Fatalf("got (%v,%d)", p, l)
	}
	if p, l := eng.PredictLabel([]float64{0.25}); p != 0.25 || l != 0 {
		t.Fatalf("got (%v,%d)", p, l)
	}
}

// TestEnginePredictZeroAlloc: taking an arena, scoring and returning it must
// not allocate in steady state.
func TestEnginePredictZeroAlloc(t *testing.T) {
	net, rows, _ := testNet(t, 8)
	eng, err := New(Config{NewScorer: f64Scorers(t, net), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	eng.Predict(rows[0]) // warm the arena
	n := testing.AllocsPerRun(50, func() { eng.Predict(rows[0]) })
	if n > 0 {
		t.Fatalf("Predict allocates %v per call in steady state, want 0", n)
	}
}

// TestObserverDoesNotChangeScores scores the same rows through two engines —
// one with a live metrics registry, one with the nil default — and requires
// bit-identical results: instruments count, they never feed back into
// scoring. It also checks the infer_* series obey the engine's accounting
// invariants (no lost requests, one forward pass and one histogram
// observation per request).
func TestObserverDoesNotChangeScores(t *testing.T) {
	net, rows, want := testNet(t, 48)
	reg := obs.NewRegistry()
	const feeds = 8
	for _, o := range []obs.Observer{nil, reg} {
		eng, err := New(Config{
			NewScorer: f64Scorers(t, net),
			Workers:   4,
			Observer:  o,
		})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for f := 0; f < feeds; f++ {
			wg.Add(1)
			go func(f int) {
				defer wg.Done()
				for k := 0; k < 2*len(rows); k++ {
					i := (f + k) % len(rows)
					if p := eng.Predict(rows[i]); p != want[i] {
						t.Errorf("observer=%v: row %d scored %v, want %v", o != nil, i, p, want[i])
						return
					}
				}
			}(f)
		}
		wg.Wait()
		eng.Close()
	}

	get := func(name string) obs.MetricSnapshot {
		for _, m := range reg.Snapshot().Metrics {
			if m.Name == name {
				return m
			}
		}
		t.Fatalf("series %s missing from registry", name)
		return obs.MetricSnapshot{}
	}
	requests := int64(get("infer_requests_total").Value)
	batches := int64(get("infer_batches_total").Value)
	fastPath := int64(get("infer_fast_path_total").Value)
	if wantReq := int64(feeds * 2 * len(rows)); requests != wantReq {
		t.Errorf("infer_requests_total = %d, want %d (no lost requests)", requests, wantReq)
	}
	if batches != requests || fastPath != requests {
		t.Errorf("batches=%d fast=%d, want one fused forward pass per request (%d)", batches, fastPath, requests)
	}
	if m := get("infer_batch_size"); m.Count != batches || m.Sum != float64(requests) {
		t.Errorf("infer_batch_size count=%d sum=%v, want %d observations of one row", m.Count, m.Sum, batches)
	}
	if busy := get("infer_busy_workers").Value; busy != 0 {
		t.Errorf("infer_busy_workers = %v after all callers returned, want 0", busy)
	}
}

// TestEngineKernelSurfaced pins the kernel-identity reporting: Kernel()
// matches cpukit's process-wide selection and the infer_kernel_avx2 gauge
// is 1 exactly when the AVX2 kernels are live.
func TestEngineKernelSurfaced(t *testing.T) {
	net, _, _ := testNet(t, 4)
	reg := obs.NewRegistry()
	eng, err := New(Config{NewScorer: f64Scorers(t, net), Workers: 1, Observer: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if got, want := eng.Kernel(), cpukit.Active().String(); got != want {
		t.Fatalf("Kernel() = %q, want %q", got, want)
	}
	want := 0.0
	if cpukit.Active() == cpukit.KernelAVX2 {
		want = 1
	}
	if got := reg.Gauge("infer_kernel_avx2", "").Value(); got != want {
		t.Fatalf("infer_kernel_avx2 = %v, want %v (kernel %s)", got, want, cpukit.Active())
	}
}
