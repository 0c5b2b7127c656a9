// Package server is the multi-tenant network serving layer: it accepts CSI
// frame streams from many rooms ("feeds") over HTTP/JSON and routes each
// feed into its own degradation-aware stream.Runtime, all backed by one
// shared inference engine. It is the piece that turns the repository from a
// library into a service, and it defends itself the way a production
// service must:
//
//   - bounded per-feed ingest queues — a full queue returns 429 with the
//     number of frames that were accepted, never blocking the accept loop
//     and never dropping a frame silently;
//   - per-feed token-bucket rate limiting (RatePerSec/Burst);
//   - idle-feed eviction — a feed that stops sending is torn down by the
//     stream runtime's dead-feed watchdog after IdleTimeout;
//   - request timeouts on every non-streaming route;
//   - graceful drain — BeginDrain flips /readyz to 503 and rejects new
//     work while in-flight frames keep flowing; Drain then closes every
//     feed queue and waits for the runtimes to finish, so no accepted
//     frame loses its decision.
//
// Determinism carries over the wire: a feed's decision sequence is a
// function of its accepted frame sequence alone (stream.Process is
// deterministic and the shared engine is bit-identical to the direct
// path), so a client replaying the same frames in order sees exactly the
// decisions an in-process runtime would produce — the property
// cmd/loadgen's HTTP mode verifies end to end. See DESIGN.md §11.
package server

import (
	"context"
	"errors"
	"fmt"
	"net/http/httputil"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/drift"
	"repro/internal/framelog"
	"repro/internal/infer"
	"repro/internal/obs"
	"repro/internal/stream"
)

// Config parametrises the serving layer. Primary is required; every other
// zero field takes the stated default.
type Config struct {
	// Primary is the shared detector serving every feed's healthy path —
	// typically a core.DetectorEngine so concurrent feeds share one model
	// and a bounded set of forward arenas. Required.
	Primary stream.Predictor
	// Fallback, when non-nil, serves feeds whose env feed died (see
	// stream.Config.Fallback).
	Fallback stream.Predictor
	// PrimaryUsesEnv declares whether Primary consumes Temp/Humidity.
	PrimaryUsesEnv bool
	// MaxHoldGap / WatchdogFrames / RecoverFrames / SmootherNeed tune each
	// feed's stream.Runtime (zero: stream defaults).
	MaxHoldGap     int
	WatchdogFrames int
	RecoverFrames  int
	SmootherNeed   int

	// QueueDepth bounds each feed's ingest queue (default 256). Ingest
	// past a full queue returns 429 with the accepted count.
	QueueDepth int
	// MaxFeeds caps concurrently registered feeds (default 1024).
	MaxFeeds int
	// RatePerSec is the per-feed token-bucket refill rate in frames/sec.
	// <= 0 disables rate limiting.
	RatePerSec float64
	// Burst is the token-bucket capacity (default: 2×RatePerSec, min 1).
	Burst int
	// IdleTimeout evicts a feed that has delivered no frame for roughly
	// this long (default 2 min). Negative disables eviction.
	IdleTimeout time.Duration
	// RequestTimeout bounds every non-streaming request (default 10 s).
	RequestTimeout time.Duration
	// StreamBuffer is the per-subscriber event buffer on the NDJSON
	// stream (default 256). A slow subscriber past its buffer loses
	// events — detectably: seq numbers gap and the drop is counted.
	StreamBuffer int
	// Seed drives per-feed backoff jitter.
	Seed int64
	// Observer receives the server_* metrics. Nil disables observability.
	Observer obs.Observer

	// Durability, when its Dir is set, puts a per-feed append-only frame
	// log (internal/framelog) under the ingest path: every frame is
	// appended — straight to the kernel, ahead of the queue — before it is
	// acknowledged, and New replays each feed's log through a fresh
	// runtime on startup, recovering every feed to the bit-identical
	// decision state an uninterrupted run would hold. The zero value
	// disables durability. The Observer above also receives the
	// framelog_* series.
	Durability framelog.Config

	// Cluster, when non-nil, makes the node shard-aware: it serves and
	// accepts the versioned shard map on /v1/cluster and redirects (or,
	// with Forward, proxies) requests for feeds another node owns. Nil
	// keeps the node standalone — every feed is local. See DESIGN.md §15.
	Cluster *ClusterConfig

	// Models, when non-nil, is the node's versioned model registry: the
	// /v1/models surface installs, activates, fetches and pins versions on
	// it; every feed's primary predictions resolve through it per frame
	// (pin, else active), so an activation is an atomic hot-swap; and each
	// primary decision carries the version id that scored it. The active
	// version's bundle is also what GET /v1/model serves and what
	// ClusterInfo's model_sha256 advertises. Nil keeps the node
	// registry-less: Primary serves everything, decisions carry no
	// version, and the model endpoints answer no_model.
	Models *infer.Registry
	// BuildModel gates candidate installs: it turns uploaded bundle bytes
	// into the predictor the registry will serve, and its error rejects
	// the candidate (422 model_rejected) without installing anything —
	// rejected candidates are never activatable. The owner typically
	// parses the bundle, checks the feature set against the serving one,
	// and runs the core.RunDivergence gate at the serving precision. Nil
	// makes installed versions blob-only (distribution without serving;
	// Primary keeps scoring).
	BuildModel func(blob []byte) (stream.Predictor, error)
	// Drift configures per-feed drift detection over primary decision
	// scores (see internal/drift). The zero value disables it; when
	// enabled, each feed runs its own deterministic detector, window
	// statistics surface as the server_drift_* series and per-feed state
	// on FeedInfo, and the detector re-baselines whenever the feed's
	// serving model version changes.
	Drift drift.Config
}

// ClusterConfig configures a node's place in the sharded cluster.
type ClusterConfig struct {
	// Self is this node's ID. It need not appear in the map: a node whose
	// ID the map omits owns nothing and redirects (or forwards) every feed
	// request — that is the thin-router configuration.
	Self string
	// Map is the initial shard map. The zero Map means "no membership
	// installed yet"; feed requests are served locally until an
	// orchestrator PUTs a populated map to /v1/cluster.
	Map cluster.Map
	// Forward proxies misplaced feed requests to the owner instead of
	// answering 307. Routers set it; peer nodes usually leave clients to
	// follow redirects (or route by shard map) themselves.
	Forward bool
}

// Validate reports whether the cluster configuration is usable.
func (c ClusterConfig) Validate() error {
	if c.Self == "" {
		return errors.New("server: ClusterConfig.Self is required")
	}
	return c.Map.Validate()
}

// Validate reports whether the configuration is serveable.
func (c Config) Validate() error {
	if c.Primary == nil {
		return errors.New("server: Config.Primary is required")
	}
	if c.QueueDepth < 0 || c.MaxFeeds < 0 || c.Burst < 0 || c.StreamBuffer < 0 {
		return fmt.Errorf("server: negative sizes (queue %d, feeds %d, burst %d, buffer %d)",
			c.QueueDepth, c.MaxFeeds, c.Burst, c.StreamBuffer)
	}
	if c.RequestTimeout < 0 {
		return fmt.Errorf("server: negative RequestTimeout %v", c.RequestTimeout)
	}
	if err := c.Durability.Validate(); err != nil {
		return err
	}
	if err := c.Drift.Validate(); err != nil {
		return err
	}
	if c.BuildModel != nil && c.Models == nil {
		return errors.New("server: Config.BuildModel set without Config.Models")
	}
	if c.Cluster != nil {
		if err := c.Cluster.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.QueueDepth == 0 {
		c.QueueDepth = 256
	}
	if c.MaxFeeds == 0 {
		c.MaxFeeds = 1024
	}
	if c.Burst == 0 {
		c.Burst = int(2 * c.RatePerSec)
		if c.Burst < 1 {
			c.Burst = 1
		}
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = 2 * time.Minute
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.StreamBuffer == 0 {
		c.StreamBuffer = 256
	}
	return c
}

// metrics are the server's obs instruments; all nil (no-op) without an
// Observer.
type metrics struct {
	activeFeeds     *obs.Gauge
	feedsCreated    *obs.Counter
	feedsEvicted    *obs.Counter
	feedsClosed     *obs.Counter
	framesIngested  *obs.Counter
	rejQueueFull    *obs.Counter
	rejRateLimited  *obs.Counter
	rejLogError     *obs.Counter
	rejDraining     *obs.Counter
	decisions       *obs.Counter
	eventsDropped   *obs.Counter
	droppedTeardown *obs.Counter
	feedsRecovered  *obs.Counter
	framesRecovered *obs.Counter
	reqLatency      *obs.Histogram
	driftWindows    *obs.Counter
	driftTriggers   *obs.Counter
	driftPSI        *obs.Gauge
	driftKS         *obs.Gauge
}

func newMetrics(o obs.Observer) metrics {
	if o == nil {
		return metrics{}
	}
	return metrics{
		activeFeeds:     o.Gauge("server_active_feeds", "feeds currently registered"),
		feedsCreated:    o.Counter("server_feeds_created_total", "feeds registered"),
		feedsEvicted:    o.Counter("server_feeds_evicted_total", "feeds torn down by the idle watchdog"),
		feedsClosed:     o.Counter("server_feeds_closed_total", "feeds closed by the client or drain"),
		framesIngested:  o.Counter("server_frames_ingested_total", "frames accepted into feed queues"),
		rejQueueFull:    o.Counter("server_rejected_queue_full_total", "frames rejected because the feed queue was full"),
		rejRateLimited:  o.Counter("server_rejected_rate_limited_total", "frames rejected by the per-feed token bucket"),
		rejLogError:     o.Counter("server_rejected_log_error_total", "frames rejected because the durable log append failed"),
		rejDraining:     o.Counter("server_rejected_draining_total", "requests rejected while draining"),
		decisions:       o.Counter("server_decisions_total", "decisions produced across all feeds"),
		eventsDropped:   o.Counter("server_stream_events_dropped_total", "stream events dropped on slow subscribers"),
		droppedTeardown: o.Counter("server_frames_dropped_teardown_total", "accepted frames still queued when their feed tore down (durable in the log when durability is on)"),
		feedsRecovered:  o.Counter("server_feeds_recovered_total", "feeds rebuilt from the frame log at startup"),
		framesRecovered: o.Counter("server_frames_recovered_total", "frames replayed from the frame log into feed runtimes"),
		reqLatency:      o.Histogram("server_request_seconds", "non-streaming request latency", obs.ExpBuckets(1e-4, 4, 10)),
		driftWindows:    o.Counter("server_drift_windows_total", "drift evaluation windows closed across all feeds"),
		driftTriggers:   o.Counter("server_drift_triggers_total", "feeds whose drift detector latched its trigger"),
		driftPSI:        o.Gauge("server_drift_psi", "PSI of the most recently evaluated drift window (any feed)"),
		driftKS:         o.Gauge("server_drift_ks", "KS statistic of the most recently evaluated drift window (any feed)"),
	}
}

// Server routes per-feed frame streams into stream Runtimes over a shared
// predictor. Safe for concurrent use.
type Server struct {
	cfg Config
	m   metrics

	mu    sync.Mutex
	feeds map[string]*feed
	seq   int64 // feeds ever created; salts per-feed jitter seeds

	draining atomic.Bool
	wg       sync.WaitGroup // one entry per live feed runtime

	// shard is the live cluster view (nil on standalone nodes); self and
	// forward mirror the ClusterConfig.
	shard   *cluster.State
	self    string
	forward bool

	// proxies caches one reverse proxy per peer address for Forward mode.
	proxyMu sync.Mutex
	proxies map[string]*httputil.ReverseProxy

	baseCtx context.Context
	stop    context.CancelFunc
}

// ShardMap returns the node's installed shard map (zero Map when the node is
// standalone or nothing is installed yet).
func (s *Server) ShardMap() cluster.Map {
	if s.shard == nil {
		return cluster.Map{}
	}
	return s.shard.Map()
}

// UpdateShardMap installs a newer shard map (see cluster.State.Update).
func (s *Server) UpdateShardMap(m cluster.Map) error {
	if s.shard == nil {
		return errors.New("server: node is not cluster-configured")
	}
	return s.shard.Update(m)
}

// New builds a Server. The configuration must Validate. With durability
// configured, every feed found in the log directory is re-registered and
// its log replayed through a fresh runtime before New returns the server —
// so the first request after a restart already sees the recovered state. A
// feed whose log is corrupt before its tail fails New (acknowledged frames
// are never silently dropped; move the feed's directory aside to proceed).
func New(cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	ctx, stop := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		m:       newMetrics(cfg.Observer),
		feeds:   make(map[string]*feed),
		proxies: make(map[string]*httputil.ReverseProxy),
		baseCtx: ctx,
		stop:    stop,
	}
	if cfg.Cluster != nil {
		st, err := cluster.NewState(cfg.Cluster.Map)
		if err != nil {
			stop()
			return nil, err
		}
		s.shard, s.self, s.forward = st, cfg.Cluster.Self, cfg.Cluster.Forward
	}
	if cfg.Durability.Enabled() {
		if err := s.recoverFeeds(); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

// recoverFeeds re-registers every feed present in the log directory. The
// log replay itself runs on each feed's own goroutine (see feed.run), so N
// recovered feeds replay concurrently, bounded by the shared engine.
func (s *Server) recoverFeeds() error {
	ids, err := framelog.ListFeeds(s.cfg.Durability.Dir)
	if err != nil {
		return fmt.Errorf("server: listing frame logs: %w", err)
	}
	for _, id := range ids {
		if !validFeedID(id) {
			return fmt.Errorf("server: frame log holds invalid feed id %q", id)
		}
		if _, _, err := s.register(id); err != nil {
			return fmt.Errorf("server: recovering feed %q: %w", id, err)
		}
		s.m.feedsRecovered.Inc()
	}
	return nil
}

// FeedCount returns the number of registered feeds.
func (s *Server) FeedCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.feeds)
}

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// BeginDrain flips the server into drain mode: /readyz answers 503 and new
// registrations and ingest are rejected, while already-queued frames keep
// flowing to their runtimes. Call it as soon as SIGTERM arrives — before
// the listener closes — so load balancers stop routing new work here while
// in-flight work completes.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Drain closes every feed's queue and waits until all runtimes have
// consumed their remaining frames (no accepted frame loses its decision),
// or ctx expires. BeginDrain is implied.
func (s *Server) Drain(ctx context.Context) error {
	s.BeginDrain()
	s.mu.Lock()
	for _, f := range s.feeds {
		f.closeQueue()
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: drain interrupted: %w", ctx.Err())
	}
}

// Close tears the server down immediately: feed contexts are cancelled and
// queued frames may go unprocessed. Use Drain for graceful shutdown.
func (s *Server) Close() {
	s.BeginDrain()
	s.stop()
	s.mu.Lock()
	for _, f := range s.feeds {
		f.closeQueue()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// register creates (or finds) a feed. The bool reports whether it already
// existed.
func (s *Server) register(id string) (*feed, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f, ok := s.feeds[id]; ok {
		return f, true, nil
	}
	if len(s.feeds) >= s.cfg.MaxFeeds {
		return nil, false, errFeedLimit
	}
	s.seq++
	f, err := s.newFeed(id, s.cfg.Seed^s.seq)
	if err != nil {
		return nil, false, err
	}
	s.feeds[id] = f
	s.m.feedsCreated.Inc()
	s.m.activeFeeds.Set(float64(len(s.feeds)))
	s.wg.Add(1)
	go f.run(s.baseCtx)
	return f, false, nil
}

// lookup returns the named feed, or nil.
func (s *Server) lookup(id string) *feed {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.feeds[id]
}

// remove detaches a finished feed from the routing table (idempotent).
func (s *Server) remove(f *feed) {
	s.mu.Lock()
	if s.feeds[f.id] == f {
		delete(s.feeds, f.id)
	}
	s.m.activeFeeds.Set(float64(len(s.feeds)))
	s.mu.Unlock()
}

var errFeedLimit = errors.New("server: feed limit reached")
