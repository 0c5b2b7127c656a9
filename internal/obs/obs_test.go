package obs

import (
	"io"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(41)
	c.Add(-5) // ignored: counters are monotonic
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	if again := r.Counter("c_total", "a counter"); again != c {
		t.Fatal("re-registering a counter must return the same instrument")
	}

	g := r.Gauge("g", "a gauge")
	g.Set(1.5)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %g, want 1.5", got)
	}
}

func TestHistogramBucketSemantics(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 4, 100} {
		h.Observe(v)
	}
	// le-semantics: v <= upper lands in the bucket.
	wantRaw := []int64{2, 2, 2} // {0.5,1}, {1.5,2}, {3,4}
	for i, want := range wantRaw {
		if got := h.counts[i].Load(); got != want {
			t.Fatalf("bucket %d raw count = %d, want %d", i, got, want)
		}
	}
	if got := h.inf.Load(); got != 1 {
		t.Fatalf("+Inf count = %d, want 1", got)
	}
	if got := h.count.Load(); got != 7 {
		t.Fatalf("count = %d, want 7", got)
	}
	if got, want := h.Sum(), 0.5+1+1.5+2+3+4+100; got != want {
		t.Fatalf("sum = %g, want %g", got, want)
	}
}

func TestNilInstrumentsNoop(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(3)
	g.Set(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments must read as zero")
	}
}

func TestKindCollisionPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind collision")
		}
	}()
	r.Gauge("x", "")
}

func TestInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	for _, bad := range []string{"", "9lead", "has space", "dash-ed",
		`x{`, `x{}`, `x{k}`, `x{k=v}`, `x{k="v"`, `x{k="v",}`, `x{k="a\"}`, `9x{k="v"}`} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("name %q: expected panic", bad)
				}
			}()
			r.Counter(bad, "")
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("labelled histogram: expected panic")
			}
		}()
		r.Histogram(`h{k="v"}`, "", nil)
	}()
}

// TestLabelledSeriesShareOneFamily: counters named family{label="value"}
// are separate series exposed under their family's single HELP and TYPE.
func TestLabelledSeriesShareOneFamily(t *testing.T) {
	r := NewRegistry()
	r.Counter(`x_total{reason="b"}`, "by reason").Add(2)
	r.Counter(`x_total{reason="a",kind="k"}`, "by reason").Inc()
	r.Counter("x_totals", "another family").Inc()
	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	want := "# HELP x_totals another family\n# TYPE x_totals counter\nx_totals 1\n" +
		"# HELP x_total by reason\n# TYPE x_total counter\n" +
		"x_total{reason=\"a\",kind=\"k\"} 1\nx_total{reason=\"b\"} 2\n"
	if b.String() != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", b.String(), want)
	}
}

// TestRegistryConcurrent hammers every instrument type from many goroutines
// while snapshots are taken concurrently, then checks the final totals are
// exact — the -race companion to the lock-free update claims.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const perWorker = 5000

	var wg sync.WaitGroup
	stop := make(chan struct{})
	snapDone := make(chan struct{})
	go func() { // concurrent snapshotter: reads race against every writer
		defer close(snapDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := r.Snapshot()
			_ = snap.WriteProm(io.Discard)
		}
	}()

	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			c := r.Counter("c_total", "")
			g := r.Gauge("g", "")
			h := r.Histogram("h", "", []float64{1, 2, 3, 4, 5, 6, 7, 8})
			for i := 0; i < perWorker; i++ {
				c.Inc()
				c.Add(2)
				g.Set(float64(i))
				h.Observe(float64(i % 10))
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-snapDone

	if got := r.Counter("c_total", "").Value(); got != workers*perWorker*3 {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker*3)
	}
	if got := r.Gauge("g", "").Value(); got != perWorker-1 {
		t.Fatalf("gauge = %g, want the last value every worker set, %d", got, perWorker-1)
	}
	h := r.Histogram("h", "", nil) // same name: buckets arg ignored on re-lookup
	if got := h.count.Load(); got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
	var wantSum float64
	for i := 0; i < perWorker; i++ {
		wantSum += float64(i % 10)
	}
	wantSum *= workers
	if got := h.Sum(); math.Abs(got-wantSum) > 1e-6 {
		t.Fatalf("histogram sum = %g, want %g", got, wantSum)
	}
}

// TestWritePromGolden locks the exposition output byte for byte.
func TestWritePromGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("stream_frames_total", "frames processed").Add(3)
	r.Gauge("infer_queue_depth", "queued requests").Set(1.5)
	h := r.Histogram("infer_batch_size", "coalesced batch sizes", []float64{1, 2, 4})
	h.Observe(1)
	h.Observe(3)
	h.Observe(9)

	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	const want = `# HELP infer_batch_size coalesced batch sizes
# TYPE infer_batch_size histogram
infer_batch_size_bucket{le="1"} 1
infer_batch_size_bucket{le="2"} 1
infer_batch_size_bucket{le="4"} 2
infer_batch_size_bucket{le="+Inf"} 3
infer_batch_size_sum 13
infer_batch_size_count 3
# HELP infer_queue_depth queued requests
# TYPE infer_queue_depth gauge
infer_queue_depth 1.5
# HELP stream_frames_total frames processed
# TYPE stream_frames_total counter
stream_frames_total 3
`
	if got := sb.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestBucketHelpers(t *testing.T) {
	exp := ExpBuckets(1, 2, 4)
	if exp[0] != 1 || exp[3] != 8 {
		t.Fatalf("ExpBuckets = %v", exp)
	}
}

// BenchmarkCounterInc documents the update-path cost of one instrument hit.
func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("bench_total", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// BenchmarkHistogramObserve documents the histogram update-path cost.
func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("bench_hist", "", ExpBuckets(1, 2, 9))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i & 255))
	}
}

// BenchmarkNilCounterInc documents the no-op cost when observability is off.
func BenchmarkNilCounterInc(b *testing.B) {
	var c *Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}
