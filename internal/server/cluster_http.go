package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httputil"
	"net/url"
	"strings"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/framelog"
)

// ForwardHeader marks a request already forwarded once by a cluster node. A
// forwarded request arriving at a node that would forward it again means two
// nodes disagree on placement (shard maps at different epochs); bouncing it
// a second time could loop forever, so the receiver answers 503
// routing_conflict instead and the client retries after refreshing its map.
const ForwardHeader = "X-Occu-Forward"

// maxClusterBody bounds a PUT /v1/cluster map (a map is a few KB even at
// hundreds of nodes).
const maxClusterBody = 1 << 20

// ClusterInfo is the GET /v1/cluster body: the node's identity and role plus
// the installed shard map. ModelSHA256 lets an orchestrator (or loadgen's
// verifier) prove every node serves identical weights before trusting
// cross-node bit-identity.
type ClusterInfo struct {
	Self        string      `json:"self"`
	Forward     bool        `json:"forward,omitempty"`
	Draining    bool        `json:"draining,omitempty"`
	ModelSHA256 string      `json:"model_sha256,omitempty"`
	Map         cluster.Map `json:"map"`
}

// LogFrame is one line of the GET /v1/feeds/{id}/log NDJSON body: the
// frame's log index plus its original wire form, exactly re-ingestable.
type LogFrame struct {
	Seq int `json:"seq"`
	FrameJSON
}

// LogEOF terminates a complete log dump. A dump that ends without this line
// was cut short (log read error mid-stream after the 200 was committed) and
// must not be trusted for handoff.
type LogEOF struct {
	EOF    bool `json:"eof"`
	Frames int  `json:"frames"`
}

// routed resolves the feed's owner on the shard map and, when it is not this
// node, answers the request — 307 to the owner, or a proxied round trip in
// Forward mode — and reports true. False means the feed is local (or the
// node is standalone / has no installed map) and the caller serves it.
func (s *Server) routed(w http.ResponseWriter, r *http.Request, id string) bool {
	if s.shard == nil || !validFeedID(id) {
		return false
	}
	owner, ok := s.shard.Owner(id)
	if !ok || owner.ID == s.self {
		return false
	}
	if s.forward {
		if r.Header.Get(ForwardHeader) != "" {
			writeError(w, http.StatusServiceUnavailable, CodeRoutingConflict,
				fmt.Sprintf("request forwarded by %q bounced: shard maps disagree on the owner of %q", r.Header.Get(ForwardHeader), id))
			return true
		}
		s.forwardTo(owner, w, r)
		return true
	}
	w.Header().Set("Location", strings.TrimSuffix(owner.Addr, "/")+r.URL.RequestURI())
	writeError(w, http.StatusTemporaryRedirect, CodeMisplacedFeed,
		fmt.Sprintf("feed %q is owned by node %q at %s", id, owner.ID, owner.Addr))
	return true
}

// forwardTo proxies the request to the owning node, reusing one reverse
// proxy per peer address. FlushInterval -1 flushes every write so forwarded
// NDJSON decision streams stay line-latency live.
func (s *Server) forwardTo(n cluster.Node, w http.ResponseWriter, r *http.Request) {
	s.proxyMu.Lock()
	p := s.proxies[n.Addr]
	if p == nil {
		u, err := url.Parse(n.Addr)
		if err != nil {
			s.proxyMu.Unlock()
			writeError(w, http.StatusBadGateway, CodeBadGateway,
				fmt.Sprintf("owner %q has unusable addr %q", n.ID, n.Addr))
			return
		}
		p = httputil.NewSingleHostReverseProxy(u)
		p.FlushInterval = -1
		p.ErrorHandler = func(w http.ResponseWriter, r *http.Request, err error) {
			writeError(w, http.StatusBadGateway, CodeBadGateway,
				"forwarding to the owning node failed: "+err.Error())
		}
		s.proxies[n.Addr] = p
	}
	s.proxyMu.Unlock()
	r.Header.Set(ForwardHeader, s.self)
	p.ServeHTTP(w, r)
}

func (s *Server) handleClusterGet(w http.ResponseWriter, r *http.Request) {
	if s.shard == nil {
		writeError(w, http.StatusNotFound, CodeNoCluster, "node runs without cluster configuration")
		return
	}
	writeJSON(w, http.StatusOK, ClusterInfo{
		Self:        s.self,
		Forward:     s.forward,
		Draining:    s.draining.Load(),
		ModelSHA256: s.activeModelSHA(),
		Map:         s.shard.Map(),
	})
}

func (s *Server) handleClusterPut(w http.ResponseWriter, r *http.Request) {
	if s.shard == nil {
		writeError(w, http.StatusNotFound, CodeNoCluster, "node runs without cluster configuration")
		return
	}
	var m cluster.Map
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxClusterBody)).Decode(&m); err != nil {
		writeError(w, http.StatusBadRequest, CodeMalformedRequest, "malformed shard map: "+err.Error())
		return
	}
	if err := s.shard.Update(m); err != nil {
		if errors.Is(err, cluster.ErrStaleEpoch) {
			writeError(w, http.StatusConflict, CodeStaleEpoch, err.Error())
			return
		}
		writeError(w, http.StatusBadRequest, CodeMalformedRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]int64{"epoch": m.Epoch})
}

// handleDrain drains the node and answers once every feed is closed, which
// is also when every accepted frame has its decision (or the client gives
// up — cancelling the request stops the sweep between feeds, not the drain:
// the node stays in drain mode). Unbounded route: on a node with many feeds
// the batches in flight can take longer than RequestTimeout to finish.
func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	if err := s.Drain(r.Context()); err != nil {
		writeError(w, http.StatusInternalServerError, CodeDrainInterrupted, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "drained"})
}

// handleFeedLog dumps a feed's durable frame log as NDJSON — the pull side
// of feed handoff. It refuses while the feed is live here (the log would
// still be growing); drain the node first, which also guarantees every
// logged frame already has its decision on this node. After the 200 is
// committed a log read error can only truncate the stream, which the
// missing LogEOF line makes detectable.
func (s *Server) handleFeedLog(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !validFeedID(id) {
		writeError(w, http.StatusBadRequest, CodeInvalidFeedID, "feed id must be 1-128 chars of [a-zA-Z0-9._-]")
		return
	}
	if !s.cfg.Durability.Enabled() {
		writeError(w, http.StatusNotFound, CodeNoLog, "node runs without durability; there is no frame log")
		return
	}
	if s.lookup(id) != nil {
		writeError(w, http.StatusConflict, CodeFeedActive,
			"feed is live on this node; drain the node (POST /v1/cluster/drain) before pulling its log")
		return
	}
	ids, err := framelog.ListFeeds(s.cfg.Durability.Dir)
	if err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, "listing frame logs: "+err.Error())
		return
	}
	found := false
	for _, have := range ids {
		if have == id {
			found = true
			break
		}
	}
	if !found {
		writeError(w, http.StatusNotFound, CodeNoLog, "no frame log for this feed")
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	n, err := framelog.Replay(s.cfg.Durability.Dir, id, -1, func(f fault.Frame) error {
		return enc.Encode(LogFrame{Seq: f.Index, FrameJSON: frameJSON(&f)})
	})
	if err != nil {
		return // stream already committed; the absent LogEOF line reports it
	}
	_ = enc.Encode(LogEOF{EOF: true, Frames: n})
}
