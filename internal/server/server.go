// Package server is the multi-tenant network serving layer: it accepts CSI
// frame streams from many rooms ("feeds") over HTTP/JSON and runs each
// feed's frames through its own degradation-aware stream.Runtime, all
// backed by one shared inference engine. A feed is a lock around its state,
// not a goroutine: an ingest request appends its frames to the feed's log,
// decides them and publishes the decisions on its own goroutine before it
// is acknowledged, so 202 means logged *and* decided. It is the piece that
// turns the repository from a library into a service, and it defends itself
// the way a production service must:
//
//   - per-feed token-bucket rate limiting (RatePerSec/Burst) — an exhausted
//     bucket returns 429 with the number of frames that were accepted,
//     never dropping a frame silently;
//   - idle-feed eviction — one server-level sweeper closes feeds that have
//     accepted no frame for IdleTimeout;
//   - request timeouts on every non-streaming route, and ack-or-nothing
//     under them: a batch whose request died waiting for the feed is
//     refused whole;
//   - graceful drain — BeginDrain flips /readyz to 503 and rejects new
//     work; Drain then closes every feed under its lock, behind whatever
//     batch is in flight, so no accepted frame loses its decision.
//
// Determinism carries over the wire: a feed's decision sequence is a
// function of its accepted frame sequence alone (stream.Process is
// deterministic and the shared engine is bit-identical to the direct
// path), so a client replaying the same frames in order sees exactly the
// decisions an in-process runtime would produce — the property
// cmd/loadgen verifies end to end. See DESIGN.md §11.
package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/drift"
	"repro/internal/framelog"
	"repro/internal/infer"
	"repro/internal/obs"
	"repro/internal/parallel"
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
	// MaxHoldGap / WatchdogFrames / SmootherNeed tune each feed's
	// stream.Runtime (zero: stream defaults).
	MaxHoldGap     int
	WatchdogFrames int
	SmootherNeed   int

	// QueueDepth is inert: feeds have had no ingest queue since ingest
	// began running to completion under the feed lock. It is validated
	// non-negative and otherwise ignored, kept only because bench/ still
	// sets it; the next benchmark PR drops it (ROADMAP item 1(a)).
	QueueDepth int
	// MaxFeeds caps concurrently registered feeds (default 1024).
	MaxFeeds int
	// RatePerSec is the per-feed token-bucket refill rate in frames/sec;
	// 0 disables rate limiting. Negative, NaN and +Inf are refused.
	RatePerSec float64
	// Burst is the token-bucket capacity (default: 2×RatePerSec, min 1).
	Burst int
	// IdleTimeout evicts a feed that has accepted no frame for this long,
	// give or take the sweeper's quarter-timeout tick (default 2 min).
	// Negative disables eviction and the sweeper with it.
	IdleTimeout time.Duration
	// RequestTimeout bounds every non-streaming request (default 10 s).
	RequestTimeout time.Duration
	// StreamBuffer is the per-subscriber event buffer on the NDJSON
	// stream (default 256). A slow subscriber past its buffer loses
	// events — detectably: seq numbers gap and the drop is counted.
	StreamBuffer int
	// Observer receives the server_* metrics. Nil disables observability.
	Observer obs.Observer

	// Durability, when its Dir is set, puts a per-feed append-only frame
	// log (internal/framelog) under the ingest path: every frame is
	// appended — straight to the kernel, ahead of its decision — before it
	// is acknowledged, and each feed snapshots its decision state when a
	// segment seals and when it closes. New restores each feed's snapshot
	// and replays the frames logged after it (all of them, through a fresh
	// runtime, when the snapshot is missing or unusable), recovering every
	// feed to the bit-identical decision state an uninterrupted run would
	// hold. The zero value disables durability. The Observer above also
	// receives the framelog_* series (framelog.OpenReplay).
	Durability framelog.Config

	// Cluster, when non-nil, makes the node shard-aware: it serves and
	// accepts the versioned shard map on /v1/cluster and redirects
	// requests for feeds another node owns. Nil keeps the node standalone
	// — every feed is local. See DESIGN.md §15.
	Cluster *ClusterConfig

	// Models, when non-nil, is the node's versioned model registry: the
	// /v1/models surface installs, activates, fetches and pins versions on
	// it; every feed's primary predictions resolve through it per frame
	// (pin, else active), so an activation is an atomic hot-swap; and each
	// primary decision carries the version id that scored it. The active
	// version's id is also what ClusterInfo's model_sha256 advertises. Nil
	// keeps the node
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
	// ID the map omits owns nothing and redirects every feed request —
	// that is the thin-router configuration.
	Self string
	// Map is the initial shard map. The zero Map means "no membership
	// installed yet"; feed requests are served locally until an
	// orchestrator PUTs a populated map to /v1/cluster.
	Map cluster.Map
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
	if !(c.RatePerSec >= 0) || math.IsInf(c.RatePerSec, 1) {
		return fmt.Errorf("server: RatePerSec %v is not a finite rate ≥ 0", c.RatePerSec)
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
	rejRateLimited  *obs.Counter
	rejLogError     *obs.Counter
	rejDraining     *obs.Counter
	decisions       *obs.Counter
	eventsDropped   *obs.Counter
	feedsRecovered  *obs.Counter
	framesRecovered *obs.Counter
	framesRestored  *obs.Counter
	reqLatency      *obs.Histogram
	driftWindows    *obs.Counter
	driftTriggers   *obs.Counter
	driftPSI        *obs.Gauge
	driftKS         *obs.Gauge

	// snapshotsIgnored holds one series per ignoreReasons entry, all
	// registered up front so the label set is fixed.
	snapshotsIgnored map[string]*obs.Counter
}

func newMetrics(o obs.Observer) metrics {
	if o == nil {
		return metrics{}
	}
	m := metrics{
		activeFeeds:     o.Gauge("server_active_feeds", "feeds currently registered"),
		feedsCreated:    o.Counter("server_feeds_created_total", "feeds registered"),
		feedsEvicted:    o.Counter("server_feeds_evicted_total", "feeds closed by the idle sweeper"),
		feedsClosed:     o.Counter("server_feeds_closed_total", "feeds closed by the client or drain"),
		framesIngested:  o.Counter("server_frames_ingested_total", "frames accepted (logged and decided before the acknowledgement)"),
		rejRateLimited:  o.Counter("server_rejected_rate_limited_total", "frames rejected by the per-feed token bucket"),
		rejLogError:     o.Counter("server_rejected_log_error_total", "frames rejected because the durable log append failed"),
		rejDraining:     o.Counter("server_rejected_draining_total", "requests rejected while draining"),
		decisions:       o.Counter("server_decisions_total", "decisions produced across all feeds"),
		eventsDropped:   o.Counter("server_stream_events_dropped_total", "stream events dropped on slow subscribers"),
		feedsRecovered:  o.Counter("server_feeds_recovered_total", "feeds rebuilt from the frame log at startup"),
		framesRecovered: o.Counter("server_frames_recovered_total", "logged frames whose decision state recovery rebuilt, restored from a snapshot or replayed"),
		framesRestored:  o.Counter("server_frames_restored_total", "logged frames covered by a restored snapshot instead of replayed"),
		reqLatency:      o.Histogram("server_request_seconds", "non-streaming request latency", obs.ExpBuckets(1e-4, 4, 10)),
		driftWindows:    o.Counter("server_drift_windows_total", "drift evaluation windows closed across all feeds"),
		driftTriggers:   o.Counter("server_drift_triggers_total", "feeds whose drift detector latched its trigger"),
		driftPSI:        o.Gauge("server_drift_psi", "PSI of the most recently evaluated drift window (any feed)"),
		driftKS:         o.Gauge("server_drift_ks", "KS statistic of the most recently evaluated drift window (any feed)"),

		snapshotsIgnored: make(map[string]*obs.Counter, len(ignoreReasons)),
	}
	for _, r := range ignoreReasons {
		m.snapshotsIgnored[r] = o.Counter(`server_snapshots_ignored_total{reason="`+r+`"}`,
			"feed recoveries that replayed the whole log because its snapshot was unusable")
	}
	return m
}

// Server routes per-feed frame streams into stream Runtimes over a shared
// predictor. Safe for concurrent use.
type Server struct {
	cfg Config
	m   metrics

	// mu guards the routing table only. It is never held while waiting for
	// a feed's lock.
	mu    sync.Mutex
	feeds map[string]*feed

	draining atomic.Bool
	// sweepStop ends the idle sweeper (nil when eviction is disabled).
	sweepStop chan struct{}
	stopOnce  sync.Once

	// shard is the live cluster view (nil on standalone nodes); self is
	// the ClusterConfig's node ID.
	shard *cluster.State
	self  string

	// scorer is the model-independent part of every feed's scorer identity
	// (feed.scorer): what besides the model version decides its frames.
	scorer string
}

// New builds a Server. The configuration must Validate. With durability
// configured, every feed found in the log directory is re-registered — its
// snapshot restored and the records after it replayed, or its whole log
// replayed through a fresh runtime — before New returns the server, so the
// first request after a restart already sees the recovered state. A
// feed whose log is corrupt before its tail fails New (acknowledged frames
// are never silently dropped; move the feed's directory aside to proceed).
func New(cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:    cfg,
		m:      newMetrics(cfg.Observer),
		feeds:  make(map[string]*feed),
		scorer: scorerOf(cfg),
	}
	if cfg.Cluster != nil {
		st, err := cluster.NewState(cfg.Cluster.Map)
		if err != nil {
			return nil, err
		}
		s.shard, s.self = st, cfg.Cluster.Self
	}
	if cfg.Durability.Enabled() {
		if err := s.recoverFeeds(); err != nil {
			s.Close()
			return nil, err
		}
	}
	if cfg.IdleTimeout > 0 {
		s.sweepStop = make(chan struct{})
		go s.sweep()
	}
	return s, nil
}

// recoverFeeds re-registers every feed present in the log directory,
// GOMAXPROCS at a time: each registration scans and replays its feed's log
// to completion, so when the fan-out returns every feed is recovered. A
// directory no valid feed id names is not a feed's and is left alone.
func (s *Server) recoverFeeds() error {
	ids, err := framelog.ListFeeds(s.cfg.Durability.Dir)
	if err != nil {
		return fmt.Errorf("server: listing frame logs: %w", err)
	}
	errs := make([]error, len(ids))
	parallel.ForEach(0, len(ids), func(i int) {
		if !validFeedID(ids[i]) {
			return // not a feed's: lost+found, a hand-off's staging directory
		}
		if _, _, err := s.register(ids[i], nil); err != nil {
			errs[i] = fmt.Errorf("server: recovering feed %q: %w", ids[i], err)
		} else {
			s.m.feedsRecovered.Inc()
		}
	})
	return errors.Join(errs...)
}

// sweep is the idle-feed eviction loop, the server's only standing
// goroutine: every quarter IdleTimeout it closes the feeds whose last
// accepted frame is older than IdleTimeout.
func (s *Server) sweep() {
	t := time.NewTicker(max(s.cfg.IdleTimeout/4, time.Millisecond))
	defer t.Stop()
	for {
		select {
		case <-s.sweepStop:
			return
		case now := <-t.C:
			for _, f := range s.snapshot() {
				f.close(now.Add(-s.cfg.IdleTimeout))
			}
		}
	}
}

// FeedCount returns the number of registered feeds.
func (s *Server) FeedCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.feeds)
}

// BeginDrain flips the server into drain mode: /readyz answers 503 and new
// registrations and ingest are rejected, while batches already holding a
// feed run to completion. Call it as soon as SIGTERM arrives — before the
// listener closes — so load balancers stop routing new work here while
// in-flight work completes.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Drain closes every feed under its lock — behind whatever batch is in
// flight, so no accepted frame loses its decision — sealing its log and
// ending its subscribers. It gives up between feeds once ctx expires.
// BeginDrain is implied.
func (s *Server) Drain(ctx context.Context) error {
	s.BeginDrain()
	s.stopOnce.Do(func() {
		if s.sweepStop != nil {
			close(s.sweepStop)
		}
	})
	for _, f := range s.snapshot() {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("server: drain interrupted: %w", err)
		}
		f.close(time.Time{})
	}
	return nil
}

// Close is Drain without a deadline.
func (s *Server) Close() { _ = s.Drain(context.Background()) }

// register creates (or finds) a feed. The bool reports whether it already
// existed. A new feed enters the table locked and, with durability on,
// opens and replays its log before the lock is released: requests that find
// it meanwhile simply wait, and land behind the recovered frames. install,
// when non-nil, runs first under the same lock and puts the feed's log in
// place (a hand-off); its error fails the registration.
func (s *Server) register(id string, install func(*feed) error) (*feed, bool, error) {
	s.mu.Lock()
	if f, ok := s.feeds[id]; ok {
		s.mu.Unlock()
		return f, true, nil
	}
	// Checked under mu so it orders against Drain's snapshot: a feed is
	// either in the snapshot or refused here, never left open behind it.
	if s.draining.Load() {
		s.mu.Unlock()
		return nil, false, errDraining
	}
	if len(s.feeds) >= s.cfg.MaxFeeds {
		s.mu.Unlock()
		return nil, false, errFeedLimit
	}
	f, err := s.newFeed(id)
	if err != nil {
		s.mu.Unlock()
		return nil, false, err
	}
	f.mu.Lock()
	s.feeds[id] = f
	s.m.feedsCreated.Inc()
	s.m.activeFeeds.Set(float64(len(s.feeds)))
	s.mu.Unlock()

	if install != nil {
		err = install(f)
	}
	if err == nil && s.cfg.Durability.Enabled() {
		err = f.open()
	}
	if err != nil {
		// A dead feed must still leave the routing table.
		f.shut()
	}
	f.mu.Unlock()
	if err != nil {
		s.remove(f)
		return nil, false, err
	}
	return f, false, nil
}

// lookup returns the named feed, or nil.
func (s *Server) lookup(id string) *feed {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.feeds[id]
}

// snapshot returns the registered feeds, so callers can lock each without
// holding the table.
func (s *Server) snapshot() []*feed {
	s.mu.Lock()
	defer s.mu.Unlock()
	feeds := make([]*feed, 0, len(s.feeds))
	for _, f := range s.feeds {
		feeds = append(feeds, f)
	}
	return feeds
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

var (
	errFeedLimit = errors.New("server: feed limit reached")
	errDraining  = errors.New("server: node is draining")
)
