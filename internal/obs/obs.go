// Package obs is the observability subsystem: a metrics registry whose
// instruments are safe for concurrent use and allocation-free on the update
// path, point-in-time snapshots, Prometheus text-format exposition, and an
// optional HTTP server that also mounts net/http/pprof.
//
// The package is a leaf — it imports nothing from this repository — so any
// layer (stream runtime, version registry, fault channel, training loop) can
// depend on it without cycles. Instrumented packages accept the small
// Observer interface in their Config; *Registry implements it. A nil
// Observer is the documented no-op default: packages that receive nil simply
// keep nil instrument pointers, and every instrument method is nil-safe, so
// the uninstrumented hot path costs one predictable nil check per update.
//
// Determinism: instruments only *count*; they never feed back into any
// decision, batch boundary, or weight update. Attaching an Observer to an
// instrumented component changes what is exported, never what is computed —
// the bit-identity tests in internal/stream run with a live Registry
// attached to enforce exactly that.
//
// Update-path cost: Counter.Add and Gauge.Set are one atomic op;
// Histogram.Observe is a binary search over a fixed bucket table plus three
// atomics. Nothing on the update path allocates, takes a lock, or reads the
// clock. Registration (Registry.Counter etc.) locks and allocates and is
// meant for setup time — instrumented components resolve their instruments
// once in their constructors, not per event.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind discriminates instrument types in snapshots and exposition.
type Kind int

// Instrument kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Observer is the seam instrumented packages accept in their configs: just
// enough surface to resolve named instruments at setup time. *Registry is
// the canonical implementation. Instrumented packages must treat a nil
// Observer as "observability off" and keep nil instruments (whose methods
// no-op), so attaching metrics is always optional and never on the hot path.
//
// Resolving the same name twice returns the same instrument, so independent
// components (e.g. the primary and fallback serving engines) sharing one
// Registry aggregate into shared series instead of colliding.
type Observer interface {
	// Counter resolves a monotonically increasing counter.
	Counter(name, help string) *Counter
	// Gauge resolves a gauge (a value that can go up and down).
	Gauge(name, help string) *Gauge
	// Histogram resolves a fixed-bucket histogram. buckets are ascending
	// upper bounds (the +Inf bucket is implicit); nil selects DefBuckets.
	Histogram(name, help string, buckets []float64) *Histogram
}

// Counter is a monotonically increasing counter. The zero value is ready to
// use; a nil *Counter is a valid no-op instrument.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n. Negative deltas are ignored — counters are monotonic.
func (c *Counter) Add(n int64) {
	if c != nil && n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can move both ways, stored as float64 bits in one
// atomic word. The zero value is ready; a nil *Gauge no-ops.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the current value (0 for a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram with atomic per-bucket counts. An
// observation lands in the first bucket whose upper bound is >= v
// (Prometheus "le" semantics); values above every bound land in the implicit
// +Inf bucket. A nil *Histogram no-ops.
//
// The per-bucket counts, the total count and the sum are updated with
// independent atomics, so a concurrent snapshot may catch an observation
// between its bucket increment and the sum update. That torn read is at most
// one observation deep per writer and heals at the next quiescent point —
// the standard trade accepted by every lock-free histogram; the alternative
// (a lock per Observe) would put a mutex on the inference hot path.
type Histogram struct {
	upper  []float64 // ascending upper bounds, len >= 1
	counts []atomic.Int64
	inf    atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-added
	count  atomic.Int64
}

// NewHistogram builds an unregistered histogram — useful in tests; most
// callers resolve histograms through a Registry. buckets must be ascending;
// nil selects DefBuckets.
func NewHistogram(buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefBuckets()
	}
	if len(buckets) == 0 {
		panic("obs: histogram needs at least one bucket")
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram buckets not ascending at %d: %g <= %g",
				i, buckets[i], buckets[i-1]))
		}
	}
	up := make([]float64, len(buckets))
	copy(up, buckets)
	return &Histogram{upper: up, counts: make([]atomic.Int64, len(up))}
}

// Observe records one value. Allocation-free; safe for concurrent use.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	if i := sort.SearchFloat64s(h.upper, v); i < len(h.upper) {
		h.counts[i].Add(1)
	} else {
		h.inf.Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Sum returns the sum of observed values (0 for nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// DefBuckets returns the default latency-shaped buckets (seconds), matching
// the Prometheus client defaults: 5 ms .. 10 s.
func DefBuckets() []float64 {
	return []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}
}

// ExpBuckets returns n ascending buckets start, start·factor, ...
func ExpBuckets(start, factor float64, n int) []float64 {
	if n < 1 || start <= 0 || factor <= 1 {
		panic(fmt.Sprintf("obs: ExpBuckets(%g, %g, %d)", start, factor, n))
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// metric is one registered instrument with its metadata.
type metric struct {
	name, help string
	kind       Kind
	c          *Counter
	g          *Gauge
	h          *Histogram
}

// Registry owns a named set of instruments. Registration (the Counter /
// Gauge / Histogram methods) is mutex-guarded get-or-create; the returned
// instruments update lock-free. Safe for concurrent use.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

var _ Observer = (*Registry)(nil)

// lookup returns the metric for name, creating it with mk on first use, and
// panics on a kind collision — two components disagreeing about what a name
// means is a programming error worth failing loudly on.
func (r *Registry) lookup(name, help string, kind Kind, mk func(m *metric)) *metric {
	if !validName(name, kind) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("obs: metric %q registered as %v, requested as %v", name, m.kind, kind))
		}
		return m
	}
	m := &metric{name: name, help: help, kind: kind}
	mk(m)
	r.metrics[name] = m
	return m
}

// Counter implements Observer.
func (r *Registry) Counter(name, help string) *Counter {
	return r.lookup(name, help, KindCounter, func(m *metric) { m.c = &Counter{} }).c
}

// Gauge implements Observer.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.lookup(name, help, KindGauge, func(m *metric) { m.g = &Gauge{} }).g
}

// Histogram implements Observer.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.lookup(name, help, KindHistogram, func(m *metric) { m.h = NewHistogram(buckets) }).h
}

// validName checks the Prometheus metric-name grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*, optionally followed — on counters and gauges —
// by a label block {k="v",...}. Each labelled name is its own series; the
// series of one family share its HELP and TYPE.
func validName(name string, kind Kind) bool {
	fam, labels, labelled := strings.Cut(name, "{")
	if labelled && (kind == KindHistogram || !strings.Contains(labels, `="`) ||
		!strings.HasSuffix(labels, `"}`) || strings.ContainsAny(labels, "{\\\n")) {
		return false
	}
	return validFamily(fam)
}

// family is a series name without its label block.
func family(name string) string {
	fam, _, _ := strings.Cut(name, "{")
	return fam
}

// validFamily checks the bare metric-name grammar.
func validFamily(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
