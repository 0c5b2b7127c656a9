package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"

	"repro/internal/csi"
	"repro/internal/fault"
)

// maxIngestBody bounds one ingest request. A 64-subcarrier frame is ~1.5 KB
// of JSON; 8 MB comfortably fits several thousand frames — far past any
// sane batch — while keeping a hostile client from ballooning the heap.
const maxIngestBody = 8 << 20

// FrameJSON is the wire form of one CSI frame. CSI must carry exactly
// csi.NumSubcarriers amplitudes unless the frame is marked dropped (a
// dropped frame never delivered amplitudes; the field may be omitted).
// EnvOK defaults to true so the common case needs no flag.
type FrameJSON struct {
	Time     time.Time `json:"time"`
	CSI      []float64 `json:"csi"`
	Temp     float64   `json:"temp"`
	Humidity float64   `json:"humidity"`
	EnvOK    *bool     `json:"env_ok,omitempty"`
	Dropped  bool      `json:"dropped,omitempty"`
}

// toFrame validates and converts one wire frame (Index is assigned under the
// feed lock at ingest).
func (fj *FrameJSON) toFrame() (fault.Frame, error) {
	var f fault.Frame
	f.Dropped = fj.Dropped
	f.EnvOK = fj.EnvOK == nil || *fj.EnvOK
	f.Rec.Time = fj.Time
	if !fj.Dropped {
		if len(fj.CSI) != csi.NumSubcarriers {
			return f, fmt.Errorf("csi has %d subcarriers, want %d", len(fj.CSI), csi.NumSubcarriers)
		}
		for k, v := range fj.CSI {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return f, fmt.Errorf("csi[%d] is not finite", k)
			}
			f.Rec.CSI[k] = v
		}
	}
	if f.EnvOK {
		if math.IsNaN(fj.Temp) || math.IsInf(fj.Temp, 0) || math.IsNaN(fj.Humidity) || math.IsInf(fj.Humidity, 0) {
			return f, errors.New("env reading is not finite")
		}
		f.Rec.Temp, f.Rec.Humidity = fj.Temp, fj.Humidity
	}
	f.Truth = f.Rec
	return f, nil
}

// IngestRequest is the body of POST /v1/feeds/{id}/frames.
type IngestRequest struct {
	Frames []FrameJSON `json:"frames"`
}

// IngestResponse is the 202 body: the whole batch was accepted. A partial
// accept is an error on this surface — 429 (or 500 on log_error) with the
// ErrorBody envelope carrying the accepted/rejected split and the retry
// delay, so the success shape never needs inspecting for failure.
type IngestResponse struct {
	Accepted int `json:"accepted"`
}

// FeedInfo describes one feed in registration and listing responses.
type FeedInfo struct {
	ID string `json:"id"`
	// Decisions counts the decisions published so far (the latest
	// decision's seq + 1). Ingest decides before it acknowledges, so this
	// is also the number of frames accepted.
	Decisions int64 `json:"decisions"`
	// ModelVersion is the version behind the feed's latest primary
	// decision; PinnedModel is its registry pin, if any. Both are empty on
	// registry-less servers.
	ModelVersion string `json:"model_version,omitempty"`
	PinnedModel  string `json:"pinned_model,omitempty"`
	// Drift reports the feed's drift detector, when one is configured.
	Drift *DriftStatus `json:"drift,omitempty"`
}

// DriftStatus is a feed's drift-detector state as exposed on the listing
// surface: how many windows have been evaluated, the latest window's
// statistics, and whether drift has latched.
type DriftStatus struct {
	Windows       int64   `json:"windows"`
	PSI           float64 `json:"psi"`
	KS            float64 `json:"ks"`
	Triggered     bool    `json:"triggered,omitempty"`
	TriggerSample int64   `json:"trigger_sample,omitempty"`
}

// feedInfo snapshots one feed for the listing surface.
func (s *Server) feedInfo(f *feed) FeedInfo {
	info := FeedInfo{ID: f.id}
	f.mu.Lock()
	if f.haveLast {
		info.Decisions = f.last.Seq + 1
	}
	info.ModelVersion = f.lastVer
	if f.drift != nil {
		st := f.drift.State()
		info.Drift = &DriftStatus{
			Windows:       st.Windows,
			PSI:           st.PSI,
			KS:            st.KS,
			Triggered:     st.Triggered,
			TriggerSample: st.TriggerSample,
		}
	}
	f.mu.Unlock()
	if s.cfg.Models != nil {
		if v, ok := s.cfg.Models.Pinned(f.id); ok {
			info.PinnedModel = v.ID()
		}
	}
	return info
}

// Handler returns the server's HTTP API (the full reference is API.md):
//
//	PUT    /v1/feeds/{id}            register a feed (idempotent)
//	DELETE /v1/feeds/{id}            close a feed
//	GET    /v1/feeds                 list local feeds
//	POST   /v1/feeds/{id}/frames     batch-ingest CSI frames
//	GET    /v1/feeds/{id}/occupancy  latest decision
//	GET    /v1/feeds/{id}/stream     NDJSON decision stream (?all=1: every
//	                                 decision, default: state transitions)
//	GET    /v1/feeds/{id}/log        the closed feed's log directory as an
//	                                 archive (hand-off source; draining only)
//	PUT    /v1/feeds/{id}/log        install an archive and open the feed on
//	                                 it (hand-off target)
//	PUT    /v1/feeds/{id}/model      pin the feed to a model version
//	DELETE /v1/feeds/{id}/model      unpin the feed (back to the active model)
//	GET    /v1/cluster               shard map + node identity + model hash
//	PUT    /v1/cluster               install a newer shard map
//	POST   /v1/cluster/drain         drain this node and wait for it
//	GET    /v1/models                list installed model versions
//	POST   /v1/models                install a candidate bundle (gated)
//	POST   /v1/models/activate       atomically swap the active version
//	GET    /v1/models/{version}      one installed version's bundle
//	GET    /healthz                  process liveness
//	GET    /readyz                   503 once draining
//
// On a cluster-configured node, every per-feed route first resolves the
// feed's owner on the shard map: a misplaced request is answered 307 (with
// Location and a misplaced_feed envelope). Every error on the surface is one
// ErrorBody envelope.
//
// Every route except the NDJSON stream, the two log routes, and cluster
// drain is bounded by RequestTimeout. Metrics/pprof are deliberately not
// mounted here — compose with obs.Handler on the same mux (see
// cmd/occuserve).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	bounded := func(h http.HandlerFunc) http.Handler {
		return http.TimeoutHandler(s.instrument(h), s.cfg.RequestTimeout,
			`{"code":"timeout","message":"request timed out"}`)
	}
	mux.Handle("PUT /v1/feeds/{id}", bounded(s.handleRegister))
	mux.Handle("DELETE /v1/feeds/{id}", bounded(s.handleUnregister))
	mux.Handle("GET /v1/feeds", bounded(s.handleList))
	mux.Handle("POST /v1/feeds/{id}/frames", bounded(s.handleIngest))
	mux.Handle("GET /v1/feeds/{id}/occupancy", bounded(s.handleOccupancy))
	mux.HandleFunc("GET /v1/feeds/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /v1/feeds/{id}/log", s.handleLogGet)
	mux.HandleFunc("PUT /v1/feeds/{id}/log", s.handleLogPut)
	mux.Handle("GET /v1/cluster", bounded(s.handleClusterGet))
	mux.Handle("PUT /v1/cluster", bounded(s.handleClusterPut))
	mux.HandleFunc("POST /v1/cluster/drain", s.handleDrain)
	mux.Handle("GET /v1/models", bounded(s.handleModelList))
	mux.Handle("POST /v1/models", bounded(s.handleModelInstall))
	mux.Handle("POST /v1/models/activate", bounded(s.handleModelActivate))
	mux.Handle("GET /v1/models/{version}", bounded(s.handleModelGet))
	mux.Handle("PUT /v1/feeds/{id}/model", bounded(s.handleModelPin))
	mux.Handle("DELETE /v1/feeds/{id}/model", bounded(s.handleModelUnpin))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})
	return mux
}

// instrument observes request latency on the bounded routes.
func (s *Server) instrument(h http.HandlerFunc) http.Handler {
	if s.m.reqLatency == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h(w, r)
		s.m.reqLatency.Observe(time.Since(t0).Seconds())
	})
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !validFeedID(id) {
		writeError(w, http.StatusBadRequest, CodeInvalidFeedID, "feed id must be 1-128 chars of [a-zA-Z0-9._-]")
		return
	}
	if s.routed(w, r, id) {
		return
	}
	f, existed, err := s.register(id, nil)
	if err != nil {
		s.registerError(w, err)
		return
	}
	code := http.StatusCreated
	if existed {
		code = http.StatusOK
	}
	writeJSON(w, code, s.feedInfo(f))
}

// registerError answers a registration that failed.
func (s *Server) registerError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errDraining):
		s.m.rejDraining.Inc()
		writeError(w, http.StatusServiceUnavailable, CodeDraining, "node is draining")
	case errors.Is(err, errFeedLimit):
		writeError(w, http.StatusServiceUnavailable, CodeFeedLimit, err.Error())
	default:
		writeError(w, http.StatusInternalServerError, CodeInternal, err.Error())
	}
}

func (s *Server) handleUnregister(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if s.routed(w, r, id) {
		return
	}
	f := s.lookup(id)
	if f == nil {
		writeError(w, http.StatusNotFound, CodeUnknownFeed, "unknown feed")
		return
	}
	f.close(time.Time{})
	writeJSON(w, http.StatusOK, map[string]string{"status": "closed"})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	feeds := s.snapshot()
	infos := make([]FeedInfo, 0, len(feeds))
	for _, f := range feeds {
		infos = append(infos, s.feedInfo(f))
	}
	writeJSON(w, http.StatusOK, map[string]any{"feeds": infos})
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if s.routed(w, r, id) {
		return
	}
	if s.draining.Load() {
		s.m.rejDraining.Inc()
		writeError(w, http.StatusServiceUnavailable, CodeDraining, "node is draining")
		return
	}
	f := s.lookup(id)
	if f == nil {
		writeError(w, http.StatusNotFound, CodeUnknownFeed, "unknown feed")
		return
	}
	frames, ok := readFrames(w, r)
	if !ok {
		return
	}
	defer putFrames(frames)
	res, err := f.ingest(r.Context(), *frames)
	switch {
	case errors.Is(err, errFeedClosed):
		writeError(w, http.StatusNotFound, CodeUnknownFeed, err.Error())
		return
	case err != nil:
		// Nobody reads this: the timeout handler has answered already (or
		// the client is gone). What matters is that nothing was accepted.
		writeError(w, http.StatusServiceUnavailable, CodeTimeout, err.Error())
		return
	}
	if res.rejected > 0 {
		status := http.StatusTooManyRequests
		msg := fmt.Sprintf("%d of %d frames rejected (%s); retry the remainder", res.rejected, len(*frames), res.reason)
		if res.reason == CodeLogError {
			// The durable log refused the append: a server-side fault, not
			// client pressure. Accepted frames in the batch are still logged
			// and acknowledged; the client retries the rest.
			status = http.StatusInternalServerError
		}
		writeErrorRetry(w, status, res.reason, msg, res.retry, res.accepted, res.rejected)
		return
	}
	writeJSON(w, http.StatusAccepted, IngestResponse{Accepted: res.accepted})
}

// readFrames decodes and validates an ingest body into frames for
// putFrames: read once into a pooled buffer, by parseIngest or else by
// encoding/json on the same bytes. A refused body is answered here.
func readFrames(w http.ResponseWriter, r *http.Request) (*[]fault.Frame, bool) {
	buf := bodyPool.Get().(*bytes.Buffer)
	defer putBody(buf)
	buf.Reset()
	// Content-Length is the client's word: trust it up to what the pool keeps.
	if n := r.ContentLength; n > 0 {
		buf.Grow(int(min(n, maxPooledBody-bytes.MinRead)) + bytes.MinRead)
	}
	body := http.MaxBytesReader(w, r.Body, maxIngestBody)
	frames := framePool.Get().(*[]fault.Frame)
	if _, err := buf.ReadFrom(body); err == nil && parseIngest(frames, buf.Bytes()) {
		return frames, true
	}
	putFrames(frames)
	var req IngestRequest
	if err := decodeBody(io.MultiReader(bytes.NewReader(buf.Bytes()), body), &req); err != nil {
		writeError(w, http.StatusBadRequest, CodeMalformedRequest, "malformed frame batch: "+err.Error())
		return nil, false
	}
	if len(req.Frames) == 0 {
		writeError(w, http.StatusBadRequest, CodeEmptyBatch, "empty frame batch")
		return nil, false
	}
	decoded := make([]fault.Frame, len(req.Frames))
	for i := range req.Frames {
		var err error
		if decoded[i], err = req.Frames[i].toFrame(); err != nil {
			writeError(w, http.StatusBadRequest, CodeBadFrame, fmt.Sprintf("frame %d: %v", i, err))
			return nil, false
		}
	}
	return &decoded, true
}

var errTrailingData = errors.New("unexpected data after the JSON value") // see decodeBody

// decodeBody decodes a body of one JSON value, its size limited by the
// caller, into v. Anything but whitespace after the value is an error
// (json.Decoder alone ignores it): the limit's, if the body is over it.
func decodeBody(body io.Reader, v any) error {
	dec := json.NewDecoder(body)
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		if _, err := io.Copy(io.Discard, body); err != nil {
			return err
		}
		return errTrailingData
	}
	return nil
}

func (s *Server) handleOccupancy(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if s.routed(w, r, id) {
		return
	}
	f := s.lookup(id)
	if f == nil {
		writeError(w, http.StatusNotFound, CodeUnknownFeed, "unknown feed")
		return
	}
	ev, ok := f.latest()
	if !ok {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeJSON(w, http.StatusOK, ev)
}

// handleStream serves the NDJSON decision stream. It is an unbounded route:
// it runs until the client disconnects or the feed ends. Transitions only by
// default; ?all=1 (any strconv.ParseBool spelling) emits every decision —
// each line carries seq, so any drop on a slow client is detectable as a
// gap.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if s.routed(w, r, id) {
		return
	}
	f := s.lookup(id)
	if f == nil {
		writeError(w, http.StatusNotFound, CodeUnknownFeed, "unknown feed")
		return
	}
	all := false
	if v := r.URL.Query().Get("all"); v != "" {
		var err error
		if all, err = strconv.ParseBool(v); err != nil {
			writeError(w, http.StatusBadRequest, CodeMalformedRequest, "all must be a boolean (1/0/true/false)")
			return
		}
	}
	sub, ok := f.subscribe(all)
	if !ok {
		writeError(w, http.StatusGone, CodeFeedEnded, "feed has ended")
		return
	}
	defer f.unsubscribe(sub)

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		flusher.Flush()
	}
	var line []byte // one subscriber's encode buffer, reused per event
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, open := <-sub.ch:
			if !open {
				return
			}
			var err error
			if line, err = appendEvent(line[:0], &ev); err != nil {
				return
			}
			if _, err := w.Write(line); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
	}
}

// writeJSON emits one JSON body with the right headers.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// validFeedID accepts 1-128 chars of [a-zA-Z0-9._-], excluding the path
// navigation names "." and ".." — feed IDs become directory names under the
// durable log root, and those two would escape or collide with it.
func validFeedID(id string) bool {
	if len(id) == 0 || len(id) > 128 || id == "." || id == ".." {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}
