package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/framelog"
)

// maxClusterBody bounds a PUT /v1/cluster map (a map is a few KB even at
// hundreds of nodes).
const maxClusterBody = 1 << 20

// ClusterInfo is the GET /v1/cluster body: the node's identity plus the
// installed shard map. ModelSHA256 lets an orchestrator prove every node
// serves identical weights before trusting cross-node bit-identity
// (scripts/cluster_smoke.sh does).
type ClusterInfo struct {
	Self        string      `json:"self"`
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
// node, answers the request with a 307 to the owner and reports true. False
// means the feed is local (or the node is standalone / has no installed map)
// and the caller serves it.
func (s *Server) routed(w http.ResponseWriter, r *http.Request, id string) bool {
	if s.shard == nil || !validFeedID(id) {
		return false
	}
	owner, ok := s.shard.Owner(id)
	if !ok || owner.ID == s.self {
		return false
	}
	w.Header().Set("Location", strings.TrimSuffix(owner.Addr, "/")+r.URL.RequestURI())
	writeError(w, http.StatusTemporaryRedirect, CodeMisplacedFeed,
		fmt.Sprintf("feed %q is owned by node %q at %s", id, owner.ID, owner.Addr))
	return true
}

func (s *Server) handleClusterGet(w http.ResponseWriter, r *http.Request) {
	if s.shard == nil {
		writeError(w, http.StatusNotFound, CodeNoCluster, "node runs without cluster configuration")
		return
	}
	writeJSON(w, http.StatusOK, ClusterInfo{
		Self:        s.self,
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
