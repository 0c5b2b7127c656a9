package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/drift"
	"repro/internal/fault"
	"repro/internal/framelog"
	"repro/internal/stream"
)

// Event is one decision as published to clients: the latest-decision read
// and every NDJSON stream line carry exactly this shape. Seq is the frame
// index the decision answers; consecutive events from a healthy subscriber
// have consecutive Seq (in ?all=1 mode), so a gap proves events were
// dropped on a slow subscriber — the server never drops silently.
type Event struct {
	Seq        int64     `json:"seq"`
	Time       time.Time `json:"time"`
	P          float64   `json:"p"`
	Pred       int       `json:"pred"`
	State      int       `json:"state"`
	Flipped    bool      `json:"flipped"`
	Mode       string    `json:"mode"`
	CSIImputed bool      `json:"csi_imputed,omitempty"`
	EnvImputed bool      `json:"env_imputed,omitempty"`
	// ModelVersion is the registry version (SHA-256 id) whose inference
	// produced this decision. Empty on registry-less servers and on
	// decisions the primary model did not score (fallback and held modes).
	ModelVersion string `json:"model_version,omitempty"`
}

// subscriber is one NDJSON stream client.
type subscriber struct {
	ch  chan Event
	all bool // every decision, not just transitions
}

// feed is one tenant: a lock around everything the room owns. There is no
// goroutine and no queue behind it — ingest, recovery replay and close all
// run to completion on the caller's goroutine while holding mu, so the
// order in which callers win the lock is the feed's frame order, log order
// and decision order at once.
type feed struct {
	id  string
	srv *Server

	// mu guards every field below. The server's table lock is never held
	// while waiting for it (register locks a feed only before publishing
	// it), so a long replay stalls its own feed and nothing else.
	mu         sync.Mutex
	rt         *stream.Runtime
	closed     bool // ended: no ingest, no subscribers, log sealed, off the table
	nextIndex  int
	tokens     float64
	lastFill   time.Time
	lastActive time.Time // registration, end of replay, or last accepted frame
	last       Event
	haveLast   bool
	subs       map[*subscriber]struct{}

	// vp resolves the serving model version per prediction on
	// registry-backed servers (nil otherwise); lastVer is the version
	// behind the most recent primary decision. drift, when configured,
	// observes primary decision scores and re-baselines on version changes.
	vp      *versionedPredictor
	drift   *drift.Detector
	lastVer string

	// log is the feed's durable frame log (nil without durability). Appends
	// happen under mu ahead of the decisions, so the log order is exactly
	// the accepted frame order and an acknowledged frame is always
	// replayable.
	log *framelog.Writer
}

// newFeed builds the feed and its runtime without touching the disk, so
// registration — not the first frame — reports a broken server config and
// the table lock is never held across I/O.
func (s *Server) newFeed(id string) (*feed, error) {
	now := time.Now()
	f := &feed{
		id:         id,
		srv:        s,
		tokens:     float64(s.cfg.Burst),
		lastFill:   now,
		lastActive: now,
		subs:       make(map[*subscriber]struct{}),
	}
	if s.cfg.Models != nil {
		f.vp = &versionedPredictor{reg: s.cfg.Models, feed: id, def: s.cfg.Primary}
	}
	return f, f.fresh()
}

// fresh gives the feed the decision state of one that has seen no frame: a
// new runtime and drift detector, no latest decision. Only newFeed's call
// can fail; later ones rebuild from the configuration it accepted.
func (f *feed) fresh() error {
	s := f.srv
	sc := stream.Config{
		Primary:        s.cfg.Primary,
		Fallback:       s.cfg.Fallback,
		PrimaryUsesEnv: s.cfg.PrimaryUsesEnv,
		MaxHoldGap:     s.cfg.MaxHoldGap,
		WatchdogFrames: s.cfg.WatchdogFrames,
		SmootherNeed:   s.cfg.SmootherNeed,
		Observer:       s.cfg.Observer,
	}
	if f.vp != nil {
		sc.Primary = f.vp
	}
	var err error
	f.drift = nil
	if s.cfg.Drift.Enabled() {
		if f.drift, err = drift.New(s.cfg.Drift); err != nil {
			return err
		}
	}
	f.rt, err = stream.New(sc)
	f.last, f.haveLast, f.lastVer = Event{}, false, ""
	return err
}

// open rebuilds the exact decision state of the feed's previous life: it
// restores the feed's snapshot and, in the pass that validates the whole
// log, runs the frames logged after the snapshot's anchor through the
// runtime — every logged frame, through a fresh runtime, when the snapshot
// is unusable (counted by reason). The caller holds mu and has already
// published the feed, so ingest arriving meanwhile waits on the lock and
// lands behind the recovered frames — and nothing can append, rotate or
// retire a segment under the replay's feet. A frame is decided as soon as
// its record checks out, so when the log turns out corrupt further on, the
// runtime has already seen the frames ahead of the fault: the error takes
// the whole feed off the table (register), and what was decided goes with
// it, unpublished to anyone but the decision counter.
func (f *feed) open() error {
	s := f.srv
	n := 0
	replay := func(fr *fault.Frame) {
		f.decide(fr)
		n++
	}
	from, reason, err := f.restore(framelog.ReadSnapshot(s.cfg.Durability.Dir, f.id))
	if err != nil {
		return err
	}
	w, rec, err := framelog.OpenReplay(s.cfg.Durability, s.cfg.Observer, f.id, from, replay)
	if err == nil && rec.Stale != "" {
		reason, from = rec.Stale, framelog.Anchor{}
		_ = w.Close() // nothing was appended; reopened to replay everything
		if err = f.fresh(); err == nil {
			w, rec, err = framelog.OpenReplay(s.cfg.Durability, s.cfg.Observer, f.id, from, replay)
		}
	}
	if reason != "" && (reason != ignoredMissing || rec.Frames > 0) {
		s.m.snapshotsIgnored[reason].Inc()
	}
	if err != nil {
		s.m.framesRecovered.Add(int64(n))
		return err
	}
	want := rec.Frames
	if from.Next > 0 {
		want = rec.NextIndex - from.Next
	}
	if n != want {
		_ = w.Close()
		return fmt.Errorf("server: feed %q replayed %d of the %d logged frames it should", f.id, n, want)
	}
	s.m.framesRecovered.Add(int64(from.Next + n))
	s.m.framesRestored.Add(int64(from.Next))
	f.log = w
	f.nextIndex = rec.NextIndex
	f.lastActive = time.Now()
	return nil
}

// decide runs one accepted frame through the runtime, records the decision
// as the feed's latest and fans it out to the subscribers. It is the single
// path frames take, live or recovered. Callers hold mu.
func (f *feed) decide(fr *fault.Frame) {
	s := f.srv
	d := f.rt.Process(*fr)
	ev := Event{
		Seq:        int64(fr.Index),
		Time:       fr.Rec.Time,
		P:          d.P,
		Pred:       d.Pred,
		State:      d.State,
		Flipped:    d.Flipped,
		Mode:       d.Mode.String(),
		CSIImputed: d.CSIImputed,
		EnvImputed: d.EnvImputed,
	}
	s.m.decisions.Inc()
	if d.Mode == stream.ModePrimary {
		if f.vp != nil {
			// lastID was set by the prediction this decision came from.
			ev.ModelVersion = f.vp.lastID
		}
		if f.drift != nil {
			if ev.ModelVersion != f.lastVer {
				// A swap (or fallback recovery onto a new version) changes
				// the score distribution by construction; re-baseline so
				// drift measures the new model against its own scores.
				f.drift.Reset()
			}
			res := f.drift.Observe(d.P)
			if res.Evaluated {
				s.m.driftWindows.Inc()
				s.m.driftPSI.Set(res.PSI)
				s.m.driftKS.Set(res.KS)
				if res.Triggered && res.TriggerSample == res.Sample {
					s.m.driftTriggers.Inc()
				}
			}
		}
		f.lastVer = ev.ModelVersion
	}
	transition := !f.haveLast || f.last.State != d.State
	f.last = ev
	f.haveLast = true
	for sub := range f.subs {
		if !sub.all && !transition {
			continue
		}
		select {
		case sub.ch <- ev:
		default:
			// Slow subscriber: drop, visibly. The seq gap tells the
			// client; the counter tells the operator.
			s.m.eventsDropped.Inc()
		}
	}
}

// close ends the feed: ingest stops, the decision state is snapshotted and
// the log sealed (so the next start restores it and replays nothing), every
// subscriber stream ends after the events already buffered for it, and the
// feed leaves the routing table.
// Whatever batch holds the lock finishes first, so every acknowledged frame
// has its decision by the time close returns. A non-zero idleBefore makes
// it an eviction: the feed is closed only if nothing was accepted since.
// Idempotent.
func (f *feed) close(idleBefore time.Time) {
	s := f.srv
	evict := !idleBefore.IsZero()
	f.mu.Lock()
	if f.closed || (evict && !f.lastActive.Before(idleBefore)) {
		f.mu.Unlock()
		return
	}
	f.shut()
	f.mu.Unlock()
	if evict {
		s.m.feedsEvicted.Inc()
	} else {
		s.m.feedsClosed.Inc()
	}
	s.remove(f)
}

// shut is close's state change. Callers hold mu and take the feed off the
// table afterwards. A feed whose recovery failed has no log to snapshot.
func (f *feed) shut() {
	f.closed = true
	if f.log != nil {
		f.saveSnapshot()
		_ = f.log.Close()
	}
	for sub := range f.subs {
		close(sub.ch)
	}
	f.subs = nil
}

// subscribe attaches an NDJSON client; false when the feed already ended
// (a new subscriber would hang forever on a channel nobody writes).
func (f *feed) subscribe(all bool) (*subscriber, bool) {
	sub := &subscriber{ch: make(chan Event, f.srv.cfg.StreamBuffer), all: all}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, false
	}
	f.subs[sub] = struct{}{}
	return sub, true
}

// unsubscribe detaches a client (idempotent with close).
func (f *feed) unsubscribe(sub *subscriber) {
	f.mu.Lock()
	delete(f.subs, sub)
	f.mu.Unlock()
}

// latest returns the newest decision, if any frame has been processed.
func (f *feed) latest() (Event, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.last, f.haveLast
}

// ingestResult is the outcome of one batch.
type ingestResult struct {
	accepted int
	rejected int
	reason   string // CodeRateLimited | CodeLogError | "" when all accepted
	retry    time.Duration
}

// Why ingest refused a batch outright (nothing accepted, nothing to retry
// here).
var (
	errFeedClosed  = errors.New("feed is closed")
	errRequestDead = errors.New("request expired before the feed accepted it")
)

// ingest runs one batch to completion under the feed lock: the token bucket
// decides how many frames may enter, the accepted prefix is appended to the
// log, and each accepted frame is decided and published before the call
// returns — an acknowledged frame is logged *and* decided. The first limit
// hit stops the batch; accepted frames stay accepted, the rest are reported
// back for the client to retry.
//
// ctx is the request's: a request that died while waiting for the lock
// (RequestTimeout answered 503 for it, or the client hung up) is refused
// whole, because the client was already told it failed and will retry —
// accepting it now would duplicate the batch.
//
// With durability on, the whole accepted prefix is appended in one batched
// write before any of it reaches the runtime, so the durability tax is one
// syscall (plus at most one fsync) per request, not per frame. A failed
// batch append accepts exactly the prefix the log durably holds
// (AppendBatch reports it) and rejects the rest: anything less and recovery
// would replay frames the client was told to retry — duplicates under
// colliding indices; anything more and an acknowledged frame would be
// unreplayable. The failing chunk's torn bytes are truncated away by the
// writer itself.
func (f *feed) ingest(ctx context.Context, frames []fault.Frame) (ingestResult, error) {
	s := f.srv
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ingestResult{}, errFeedClosed
	}
	if ctx.Err() != nil {
		return ingestResult{}, errRequestDead
	}

	now := time.Now()
	allowed := len(frames)
	var res ingestResult
	if rate := s.cfg.RatePerSec; rate > 0 {
		f.tokens += now.Sub(f.lastFill).Seconds() * rate
		if burst := float64(s.cfg.Burst); f.tokens > burst {
			f.tokens = burst
		}
		f.lastFill = now
		if int(f.tokens) < allowed {
			allowed = int(f.tokens)
			res.reason = CodeRateLimited
			res.retry = time.Duration(float64(len(frames)-allowed) / rate * float64(time.Second))
		}
	}
	for i := range frames[:allowed] {
		frames[i].Index = f.nextIndex + i
	}
	sealed := false
	if f.log != nil && allowed > 0 {
		seg := f.log.Segment()
		if n, err := f.log.AppendBatch(frames[:allowed]); err != nil {
			allowed = n
			res.reason = CodeLogError
			res.retry = time.Second
		}
		sealed = f.log.Segment() != seg
	}
	f.nextIndex += allowed
	f.tokens -= float64(allowed)
	res.accepted = allowed
	res.rejected = len(frames) - allowed
	s.m.framesIngested.Add(int64(allowed))
	for i := range frames[:allowed] {
		f.decide(&frames[i])
	}
	if sealed {
		// A restart after this replays at most the frames logged since.
		f.saveSnapshot()
	}
	if allowed > 0 {
		f.lastActive = now
	}
	switch res.reason {
	case CodeRateLimited:
		s.m.rejRateLimited.Add(int64(res.rejected))
	case CodeLogError:
		s.m.rejLogError.Add(int64(res.rejected))
	}
	return res, nil
}
