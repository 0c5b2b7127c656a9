package server

import (
	"errors"
	"io"
	"net/http"

	"repro/internal/infer"
)

// maxModelBody bounds one POST /v1/models bundle. The paper MLP's bundle is
// ~300 KB; 64 MB leaves room for far larger topologies while keeping a
// hostile client from ballooning the heap.
const maxModelBody = 64 << 20

// ModelInfo is the wire shape of one installed model version.
type ModelInfo = infer.VersionInfo

// ModelsResponse is the GET /v1/models body.
type ModelsResponse struct {
	// Active is the version id serving unpinned feeds ("" before the
	// first activation).
	Active string `json:"active,omitempty"`
	// Models lists every installed version in install order.
	Models []ModelInfo `json:"models"`
}

// ModelActivateRequest is the POST /v1/models/activate body.
type ModelActivateRequest struct {
	ID string `json:"id"`
}

// ModelActivateResponse acknowledges an activation.
type ModelActivateResponse struct {
	Active string `json:"active"`
	Seq    int64  `json:"seq"`
}

// ModelPinRequest is the PUT /v1/feeds/{id}/model body.
type ModelPinRequest struct {
	ID string `json:"id"`
}

// ModelPinResponse acknowledges a pin (or, with Pinned empty, an unpin).
type ModelPinResponse struct {
	Feed   string `json:"feed"`
	Pinned string `json:"pinned"`
}

// modelRegistry resolves the node's registry, answering no_model when the
// server runs without one.
func (s *Server) modelRegistry(w http.ResponseWriter) (*infer.Registry, bool) {
	if s.cfg.Models == nil {
		writeError(w, http.StatusNotFound, CodeNoModel, "node runs without a model registry")
		return nil, false
	}
	return s.cfg.Models, true
}

// activeModelSHA is the SHA-256 id of the registry's active version ("" on
// registry-less nodes or before the first activation) — what ClusterInfo
// advertises for the cluster's identical-weights check.
func (s *Server) activeModelSHA() string {
	if s.cfg.Models != nil {
		if v := s.cfg.Models.Active(); v != nil {
			return v.ID()
		}
	}
	return ""
}

// modelInfo renders one version with its registry-dependent flags.
func modelInfo(reg *infer.Registry, v *infer.Version) ModelInfo {
	active := reg.Active()
	return ModelInfo{
		ID:         v.ID(),
		Seq:        v.Seq(),
		Bytes:      len(v.Blob()),
		Active:     active == v,
		EverActive: reg.WasActivated(v.ID()),
	}
}

func (s *Server) handleModelList(w http.ResponseWriter, r *http.Request) {
	reg, ok := s.modelRegistry(w)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, ModelsResponse{Active: s.activeModelSHA(), Models: reg.List()})
}

// handleModelInstall accepts a candidate bundle (raw octet stream). The
// configured BuildModel gate runs before the version becomes visible: a
// gate rejection (bundle fails to parse, wrong feature set, divergence out
// of bounds) answers 422 model_rejected and installs nothing — which is
// what makes rejected candidates unactivatable. Identical bytes answer 200
// with the existing version; a fresh install answers 201.
func (s *Server) handleModelInstall(w http.ResponseWriter, r *http.Request) {
	reg, ok := s.modelRegistry(w)
	if !ok {
		return
	}
	blob, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxModelBody))
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeMalformedRequest, "reading model bundle: "+err.Error())
		return
	}
	if len(blob) == 0 {
		writeError(w, http.StatusBadRequest, CodeMalformedRequest, "empty model bundle")
		return
	}
	var build func([]byte) (any, error)
	if s.cfg.BuildModel != nil {
		build = func(b []byte) (any, error) { return s.cfg.BuildModel(b) }
	}
	v, existed, err := reg.Install(blob, build)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, CodeModelRejected, err.Error())
		return
	}
	code := http.StatusCreated
	if existed {
		code = http.StatusOK
	}
	writeJSON(w, code, modelInfo(reg, v))
}

// handleModelActivate flips the active version — one atomic pointer store
// in the registry, so the swap is zero-downtime: no frame is dropped or
// blocked, and every decision carries the version that actually scored it.
func (s *Server) handleModelActivate(w http.ResponseWriter, r *http.Request) {
	reg, ok := s.modelRegistry(w)
	if !ok {
		return
	}
	var req ModelActivateRequest
	if err := decodeBody(http.MaxBytesReader(w, r.Body, maxClusterBody), &req); err != nil || req.ID == "" {
		writeError(w, http.StatusBadRequest, CodeMalformedRequest, "body must be {\"id\": \"<version sha256>\"}")
		return
	}
	v, err := reg.Activate(req.ID)
	if err != nil {
		if errors.Is(err, infer.ErrUnknownVersion) {
			writeError(w, http.StatusNotFound, CodeUnknownModel, err.Error())
			return
		}
		writeError(w, http.StatusInternalServerError, CodeInternal, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, ModelActivateResponse{Active: v.ID(), Seq: v.Seq()})
}

// handleModelGet serves one installed version's bundle by id —
// GET /v1/models/{version}, the single bundle-serving path (-model-from
// distribution resolves the active id on GET /v1/models first).
func (s *Server) handleModelGet(w http.ResponseWriter, r *http.Request) {
	reg, ok := s.modelRegistry(w)
	if !ok {
		return
	}
	v, found := reg.Get(r.PathValue("version"))
	if !found {
		writeError(w, http.StatusNotFound, CodeUnknownModel, "no such model version")
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Model-SHA256", v.ID())
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(v.Blob())
}

// handleModelPin pins a feed to a version: the feed serves that version
// regardless of activations until unpinned — A/B serving on the same
// version plumbing. The pin is keyed by feed id and applies whether or not
// the feed is currently registered.
func (s *Server) handleModelPin(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !validFeedID(id) {
		writeError(w, http.StatusBadRequest, CodeInvalidFeedID, "feed id must be 1-128 chars of [a-zA-Z0-9._-]")
		return
	}
	if s.routed(w, r, id) {
		return
	}
	reg, ok := s.modelRegistry(w)
	if !ok {
		return
	}
	var req ModelPinRequest
	if err := decodeBody(http.MaxBytesReader(w, r.Body, maxClusterBody), &req); err != nil || req.ID == "" {
		writeError(w, http.StatusBadRequest, CodeMalformedRequest, "body must be {\"id\": \"<version sha256>\"}")
		return
	}
	v, err := reg.Pin(id, req.ID)
	if err != nil {
		if errors.Is(err, infer.ErrUnknownVersion) {
			writeError(w, http.StatusNotFound, CodeUnknownModel, err.Error())
			return
		}
		writeError(w, http.StatusInternalServerError, CodeInternal, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, ModelPinResponse{Feed: id, Pinned: v.ID()})
}

// handleModelUnpin removes a feed's pin (idempotent); the feed returns to
// the active version.
func (s *Server) handleModelUnpin(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !validFeedID(id) {
		writeError(w, http.StatusBadRequest, CodeInvalidFeedID, "feed id must be 1-128 chars of [a-zA-Z0-9._-]")
		return
	}
	if s.routed(w, r, id) {
		return
	}
	reg, ok := s.modelRegistry(w)
	if !ok {
		return
	}
	reg.Unpin(id)
	writeJSON(w, http.StatusOK, ModelPinResponse{Feed: id})
}
