package occupancy

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/cpukit"
	"repro/internal/dataset"
	"repro/internal/drift"
	"repro/internal/framelog"
	"repro/internal/infer"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/stream"
)

// ServeConfig controls Serve / NewServer. Only Addr is required; every zero
// field takes the internal/server default.
type ServeConfig struct {
	// Addr is the listen address, e.g. ":8080" or "127.0.0.1:0".
	Addr string
	// Fallback, when non-nil, serves feeds whose environmental sensor feed
	// has died; train it with FeaturesCSI.
	Fallback *Detector

	// Precision selects the scorer arithmetic for both the primary and the
	// fallback engine: PrecisionF64 (default), PrecisionF32 or PrecisionI8
	// (see EngineConfig.Precision).
	Precision string

	// QueueDepth is inert (feeds have no ingest queue): passed through to
	// server.Config, which validates it non-negative and ignores it. Kept
	// only because bench/ still sets it; the next benchmark PR drops it.
	QueueDepth int
	// MaxFeeds caps concurrently registered feeds.
	MaxFeeds int
	// RatePerSec/Burst configure the per-feed token bucket (0: unlimited).
	RatePerSec float64
	Burst      int
	// IdleTimeout evicts silent feeds (negative disables).
	IdleTimeout time.Duration
	// RequestTimeout bounds every non-streaming request (default 10 s),
	// and the time a client may take to send a request's headers.
	RequestTimeout time.Duration
	// StreamBuffer is the per-subscriber NDJSON event buffer.
	StreamBuffer int
	// DrainTimeout bounds graceful shutdown once the context is cancelled
	// (default 30 s).
	DrainTimeout time.Duration

	// Durability, when its Dir is set, gives every feed a crash-safe frame
	// log: accepted frames are appended before they are acknowledged, and a
	// restarted server replays each feed's log to the exact pre-crash
	// decision state. The zero value disables durability.
	Durability DurabilityConfig

	// Cluster, when non-nil, makes this node one member of a sharded
	// serving cluster: it serves and accepts the versioned shard map on
	// /v1/cluster and answers requests for feeds another node owns with a
	// 307 to the owner. Nil keeps the node standalone.
	Cluster *ClusterConfig

	// Drift, when enabled, attaches a per-feed drift detector to the
	// primary decision-score stream (PSI + KS over tumbling windows,
	// exported on /metrics and the feed listing). The zero value disables
	// drift detection.
	Drift DriftConfig
}

// DriftConfig configures the per-feed drift detector (see internal/drift).
// The zero value disables detection; setting any field enables it, with the
// remaining fields defaulted.
type DriftConfig = drift.Config

// ShardMap is the versioned cluster membership every node and client
// routes by; see internal/cluster for the placement contract.
type ShardMap = cluster.Map

// ClusterNode is one serving node in a ShardMap.
type ClusterNode = cluster.Node

// ClusterConfig places a node in (or in front of) a sharded cluster: Self
// is this node's ID in the shard map (an ID the map omits makes the node a
// thin router), Map the initial membership (the zero Map waits for
// Client.UpdateShardMap).
type ClusterConfig = server.ClusterConfig

// DurabilityConfig is the per-feed frame log (see internal/framelog): Dir
// is the log root (empty disables durability), Fsync the sync policy —
// "always", "interval" (default; at most Interval between syncs, default
// 100ms) or "off"; a SIGKILL'd process loses nothing under any policy, the
// policy only matters for power loss — and SegmentMaxBytes/MaxSegments bound
// each feed's segments.
type DurabilityConfig = framelog.Config

// Validate reports whether the configuration is serveable.
func (c ServeConfig) Validate() error {
	if c.Addr == "" {
		return fmt.Errorf("occupancy: ServeConfig.Addr is required")
	}
	if c.DrainTimeout < 0 {
		return fmt.Errorf("occupancy: negative DrainTimeout %v", c.DrainTimeout)
	}
	if _, err := infer.ParsePrecision(c.Precision); err != nil {
		return err
	}
	if c.Cluster != nil {
		if err := c.Cluster.Validate(); err != nil {
			return err
		}
	}
	if err := c.Drift.Validate(); err != nil {
		return err
	}
	return c.Durability.Validate()
}

// Server is a bound, ready-to-run occupancy service: the multi-tenant
// internal/server behind one HTTP listener, with /metrics and /debug/pprof
// mounted alongside the feed API.
type Server struct {
	cfg      ServeConfig
	inner    *server.Server
	reg      *obs.Registry
	lis      net.Listener
	httpSrv  *http.Server
	shutdown chan struct{}
}

// NewServer builds the serving stack and binds the listener (so Addr is
// known before Run), but serves nothing until Run.
func NewServer(d *Detector, cfg ServeConfig) (*Server, error) {
	if d == nil {
		return nil, errNilDetector
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.DrainTimeout == 0 {
		cfg.DrainTimeout = 30 * time.Second
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 10 * time.Second // server.Config's default
	}

	// Every node serves its detector bundle from the version registry
	// (/v1/models) so a cluster can verify (by SHA-256 on /v1/cluster) that
	// all members hold identical weights — the precondition for
	// placement-independent decisions.
	var blob bytes.Buffer
	if err := d.det.Save(&blob); err != nil {
		return nil, err
	}
	// Serve the *distributed* weights, not the in-memory ones: the bundle
	// stores weights as float32, so a freshly-trained f64 detector is not
	// bit-identical to its own saved form. Normalizing to the bundle makes
	// the boot model indistinguishable from one installed over the wire —
	// the same frames score identically whether the bundle arrived via
	// NewServer, -model-from distribution, or POST /v1/models — which is
	// what lets offline replays of served traffic match bit for bit.
	d, err := LoadBytes(blob.Bytes())
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	// The obs model has no labels, so kernel identity is a 0/1 gauge.
	kernel := reg.Gauge("infer_kernel_avx2", "1 when the cpukit AVX2 kernel is active, 0 for generic")
	if cpukit.Active() == cpukit.KernelAVX2 {
		kernel.Set(1)
	}
	ecfg := core.ServeConfig{Precision: cfg.Precision}
	primary, err := core.NewDetectorEngine(d.det, ecfg)
	if err != nil {
		return nil, err
	}
	var fallback stream.Predictor
	if cfg.Fallback != nil {
		if fallback, err = core.NewDetectorEngine(cfg.Fallback.det, ecfg); err != nil {
			return nil, err
		}
	}

	// The model registry: the boot detector is version 1 and active, so
	// /v1/models and the cluster SHA agree from the first
	// request. Candidates installed later pass buildModel — the install
	// gate — before they become visible.
	models := infer.NewRegistry(reg)
	buildModel := newInstallGate(d, ecfg)
	v0, _, err := models.Install(blob.Bytes(), func(b []byte) (any, error) {
		// The boot bundle's engine already exists; reuse it rather than
		// re-gating weights the operator handed us directly.
		return primary, nil
	})
	if err == nil {
		_, err = models.Activate(v0.ID())
	}
	if err != nil {
		return nil, err
	}

	inner, err := server.New(server.Config{
		Primary:        primary,
		Fallback:       fallback,
		PrimaryUsesEnv: d.Features() != FeaturesCSI,
		QueueDepth:     cfg.QueueDepth,
		MaxFeeds:       cfg.MaxFeeds,
		RatePerSec:     cfg.RatePerSec,
		Burst:          cfg.Burst,
		IdleTimeout:    cfg.IdleTimeout,
		RequestTimeout: cfg.RequestTimeout,
		StreamBuffer:   cfg.StreamBuffer,
		Observer:       reg,
		Durability:     cfg.Durability,
		Cluster:        cfg.Cluster,
		Models:         models,
		BuildModel:     buildModel,
		Drift:          cfg.Drift,
	})
	if err != nil {
		return nil, err
	}

	lis, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		inner.Close()
		return nil, err
	}

	mux := http.NewServeMux()
	mux.Handle("/", inner.Handler())
	mux.Handle("/metrics", obs.Handler(reg))
	mux.Handle("/debug/pprof/", obs.Handler(reg))
	// Without a header timeout, a client that never finishes its headers
	// holds its connection and goroutine forever.
	httpSrv := &http.Server{Handler: mux, ReadHeaderTimeout: cfg.RequestTimeout}
	return &Server{
		cfg:      cfg,
		inner:    inner,
		reg:      reg,
		lis:      lis,
		httpSrv:  httpSrv,
		shutdown: make(chan struct{}),
	}, nil
}

// newInstallGate builds the BuildModel hook for candidate bundles: parse,
// feature-set match against the boot detector, a divergence sweep at the
// serving precision (skipped at f64, where serving is the bit-exact
// reference), and only then an engine, whose lowering refuses a network no
// arena can score. Any failure rejects the install — the registry never
// holds a version that cannot serve.
func newInstallGate(boot *Detector, ecfg core.ServeConfig) func([]byte) (stream.Predictor, error) {
	// The divergence sweep needs representative frames; generate a short
	// synthetic trace lazily (and once), since f64 servers never need it.
	var (
		once    sync.Once
		sweep   []dataset.Record
		sweepOK error
	)
	sweepRecs := func() ([]dataset.Record, error) {
		once.Do(func() {
			gcfg := dataset.DefaultGenConfig(2, 11)
			gcfg.Duration = time.Hour
			ds, err := dataset.Generate(gcfg)
			if err != nil {
				sweepOK = err
				return
			}
			sweep = ds.Records
		})
		return sweep, sweepOK
	}
	return func(b []byte) (stream.Predictor, error) {
		nd, err := LoadBytes(b)
		if err != nil {
			return nil, fmt.Errorf("parsing candidate bundle: %w", err)
		}
		if nd.det.Features != boot.det.Features {
			return nil, fmt.Errorf("candidate feature set %s does not match the serving set %s",
				nd.det.Features, boot.det.Features)
		}
		if p, _ := infer.ParsePrecision(ecfg.Precision); p != infer.PrecisionF64 {
			recs, err := sweepRecs()
			if err != nil {
				return nil, fmt.Errorf("building divergence sweep: %w", err)
			}
			res, err := core.RunDivergence(nd.det, recs, core.DivergenceConfig{Precision: string(p)})
			if err != nil {
				return nil, fmt.Errorf("divergence sweep: %w", err)
			}
			if !res.Pass {
				return nil, fmt.Errorf("candidate diverges beyond the serving bounds: %s", res)
			}
		}
		return core.NewDetectorEngine(nd.det, ecfg)
	}
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.lis.Addr().String() }

// URL returns the base URL of the bound listener.
func (s *Server) URL() string { return "http://" + s.Addr() }

// Run serves until ctx is cancelled, then drains gracefully: /readyz flips
// to 503 and new work is rejected first, every feed closes behind the batch
// it has in flight (bounded by DrainTimeout), and only then does the
// listener close. Run returns nil after a clean drain.
func (s *Server) Run(ctx context.Context) error {
	errc := make(chan error, 1)
	go func() { errc <- s.httpSrv.Serve(s.lis) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	// Stop routing before stopping listening: readiness flips and new
	// registrations/ingest reject while the listener still answers, then
	// the feeds close, then connections close.
	s.inner.BeginDrain()
	drainCtx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	drainErr := s.inner.Drain(drainCtx)
	shutErr := s.httpSrv.Shutdown(drainCtx)
	// A request's stopped timeout timer keeps its context, which names the
	// http.Server, reachable until the deadline: unhooked, a stopped
	// server's models and engines do not outlive it by RequestTimeout.
	s.httpSrv.Handler = http.NotFoundHandler()
	close(s.shutdown)
	if drainErr != nil {
		return drainErr
	}
	if shutErr != nil {
		return shutErr
	}
	return nil
}

// Metrics renders the Prometheus exposition of every series the server
// registers.
func (s *Server) Metrics() string {
	var b strings.Builder
	_ = s.reg.WriteProm(&b)
	return b.String()
}

// Serve runs the occupancy service until ctx is cancelled: NewServer + Run.
func Serve(ctx context.Context, d *Detector, cfg ServeConfig) error {
	srv, err := NewServer(d, cfg)
	if err != nil {
		return err
	}
	return srv.Run(ctx)
}
