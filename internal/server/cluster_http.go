package server

import (
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/cluster"
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
	if err := decodeBody(http.MaxBytesReader(w, r.Body, maxClusterBody), &m); err != nil {
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

// handleLogGet serves the feed's log directory as a framelog archive — the
// source side of a hand-off: sealed segments and snapshot as they lie on disk,
// each under its own CRCs. Only a draining node whose feed is closed answers,
// and draining refuses every registration, so nothing can reopen the log
// while it streams. Unbounded route: a long log streams for as long as it
// takes. After the 200 a read error can only cut the archive short, and an
// archive without its trailer is refused by the importer.
func (s *Server) handleLogGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.logRoute(w, id) {
		return
	}
	if !s.draining.Load() || s.lookup(id) != nil {
		writeError(w, http.StatusConflict, CodeFeedActive,
			"the feed can still change here; drain the node (POST /v1/cluster/drain) before exporting its log")
		return
	}
	if _, err := os.Stat(filepath.Join(s.cfg.Durability.Dir, id)); err != nil {
		writeError(w, http.StatusNotFound, CodeNoLog, "no frame log for this feed")
		return
	}
	w.Header().Set("Content-Type", "application/x-tar")
	w.WriteHeader(http.StatusOK)
	_ = framelog.Export(w, s.cfg.Durability.Dir, id)
}

// handleLogPut is the receiving side of a hand-off: it installs the archive
// in the body as the feed's log directory and opens the feed on it, exactly
// as a restart opens a feed it finds on disk — its snapshot restored, only
// the frames logged after it replayed. The feed sits locked in the table
// while the archive streams in, so nothing else can register it or create
// its directory meanwhile. Refusals leave nothing on disk: a feed live here,
// or one that already has a log directory, answers 409 feed_active; an
// archive whose snapshot another scorer wrote — another model version, pin,
// precision, kernel or runtime setting — answers 409 scorer_mismatch, before
// any segment is written. Unbounded route, like the export.
func (s *Server) handleLogPut(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if s.routed(w, r, id) || !s.logRoute(w, id) {
		return
	}
	f, existed, err := s.register(id, func(f *feed) error {
		return framelog.Import(s.cfg.Durability.Dir, id, r.Body, func(snap framelog.Snapshot) error {
			if snap.Scorer != f.scorer() {
				return fmt.Errorf("%w: the archive was scored by %q, this node scores the feed by %q", errScorerMismatch, snap.Scorer, f.scorer())
			}
			return nil
		})
	})
	switch {
	case existed || errors.Is(err, fs.ErrExist):
		writeError(w, http.StatusConflict, CodeFeedActive, "the feed is live here or already has a log directory")
	case errors.Is(err, errScorerMismatch):
		writeError(w, http.StatusConflict, CodeScorerMismatch, err.Error())
	case errors.Is(err, framelog.ErrBadArchive):
		writeError(w, http.StatusBadRequest, CodeMalformedRequest, err.Error())
	case err != nil:
		s.registerError(w, err)
	default:
		writeJSON(w, http.StatusCreated, s.feedInfo(f))
	}
}

// logRoute answers a log request that names no feed or reaches a node
// without durability, and reports whether the request may go on.
func (s *Server) logRoute(w http.ResponseWriter, id string) bool {
	switch {
	case !validFeedID(id):
		writeError(w, http.StatusBadRequest, CodeInvalidFeedID, "feed id must be 1-128 chars of [a-zA-Z0-9._-]")
	case !s.cfg.Durability.Enabled():
		writeError(w, http.StatusNotFound, CodeNoLog, "node runs without durability; there is no frame log")
	default:
		return true
	}
	return false
}

// errScorerMismatch refuses an archive whose snapshot this node would not
// have written.
var errScorerMismatch = errors.New("server: scorer mismatch")
