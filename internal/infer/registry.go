package infer

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// ErrUnknownVersion is returned for a version id the registry has never
// installed (including candidates whose build was rejected — rejection
// leaves no trace, so a rejected candidate is never activatable).
var ErrUnknownVersion = errors.New("infer: unknown model version")

// Version is one immutable installed model: the bundle bytes that arrived
// over the wire plus the payload the owner built from them (typically a
// serving engine). The id is the SHA-256 of the bundle, so identical bytes
// dedup to one version and a fetched bundle can be verified offline.
type Version struct {
	id      string
	seq     int64
	blob    []byte
	payload any
}

// ID is the hex SHA-256 of the bundle bytes.
func (v *Version) ID() string { return v.id }

// Seq is the monotonic install sequence number (1-based).
func (v *Version) Seq() int64 { return v.seq }

// Blob returns the bundle bytes. Callers must not mutate it.
func (v *Version) Blob() []byte { return v.blob }

// Payload returns whatever the install-time build callback produced (nil
// on a blob-only registry).
func (v *Version) Payload() any { return v.payload }

// VersionInfo is the wire shape of one installed version (GET /v1/models).
type VersionInfo struct {
	ID    string `json:"id"`
	Seq   int64  `json:"seq"`
	Bytes int    `json:"bytes"`
	// Active marks the version currently serving unpinned feeds.
	Active bool `json:"active,omitempty"`
	// EverActive reports the version has been active at some point — the
	// set decision version tags are checked against.
	EverActive bool `json:"ever_active,omitempty"`
	// PinnedFeeds counts feeds pinned to this version.
	PinnedFeeds int `json:"pinned_feeds,omitempty"`
}

// Registry is an atomically-swappable table of model versions. Install and
// Activate are admin-path operations behind a mutex; ResolveFor is the
// serving hot path — one atomic pointer load (plus a pin lookup) — so a
// swap is a pointer flip: frames in flight keep the version they resolved,
// frames after the flip get the new one, and nothing blocks or drops.
type Registry struct {
	mu         sync.Mutex
	byID       map[string]*Version
	order      []*Version
	everActive map[string]bool
	seq        int64

	active atomic.Pointer[Version]
	pins   sync.Map // feed id -> *Version

	installs *obs.Counter
	swaps    *obs.Counter
	activeG  *obs.Gauge
	versions *obs.Gauge
}

// NewRegistry builds an empty registry; o may be nil.
func NewRegistry(o obs.Observer) *Registry {
	r := &Registry{
		byID:       make(map[string]*Version),
		everActive: make(map[string]bool),
	}
	if o != nil {
		r.installs = o.Counter("infer_model_installs_total", "Model versions installed into the registry.")
		r.swaps = o.Counter("infer_model_swaps_total", "Activations (atomic model swaps).")
		r.activeG = o.Gauge("infer_model_active_seq", "Install sequence number of the active model version.")
		r.versions = o.Gauge("infer_model_versions", "Model versions currently installed.")
	}
	return r
}

// BlobID is the version id a bundle would install under.
func BlobID(blob []byte) string {
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

// Install adds a candidate bundle. The id is the bundle SHA-256; bytes
// already installed dedup to the existing version (existed=true) without
// re-running build. Otherwise build — when non-nil — turns the bytes into
// the serving payload; a build error rejects the candidate and installs
// nothing, which is what makes gate-rejected candidates unactivatable.
func (r *Registry) Install(blob []byte, build func([]byte) (any, error)) (v *Version, existed bool, err error) {
	if len(blob) == 0 {
		return nil, false, fmt.Errorf("infer: empty model bundle")
	}
	id := BlobID(blob)

	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.byID[id]; ok {
		return v, true, nil
	}
	var payload any
	if build != nil {
		payload, err = build(blob)
		if err != nil {
			return nil, false, err
		}
	}
	own := make([]byte, len(blob))
	copy(own, blob)
	r.seq++
	v = &Version{id: id, seq: r.seq, blob: own, payload: payload}
	r.byID[id] = v
	r.order = append(r.order, v)
	r.installs.Inc()
	r.versions.Set(float64(len(r.order)))
	return v, false, nil
}

// Activate makes the version with the given id the one serving unpinned
// feeds. The swap itself is one atomic pointer store: zero in-flight
// frames are lost, frames dispatched before the store keep the old
// version, frames after it get the new one.
func (r *Registry) Activate(id string) (*Version, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.byID[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownVersion, id)
	}
	prev := r.active.Swap(v)
	r.everActive[id] = true
	if prev != v {
		r.swaps.Inc()
		r.activeG.Set(float64(v.seq))
	}
	return v, nil
}

// Active returns the currently active version (nil before the first
// Activate).
func (r *Registry) Active() *Version { return r.active.Load() }

// Get looks a version up by id.
func (r *Registry) Get(id string) (*Version, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.byID[id]
	return v, ok
}

// WasActivated reports whether the version has ever been active — pinned
// or historical version tags on decisions must satisfy this.
func (r *Registry) WasActivated(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.everActive[id]
}

// Pin makes the given feed serve from a specific version regardless of the
// active one — the A/B serving primitive. Pinning counts as activation for
// the purposes of version tags (the pinned version will appear on
// decisions).
func (r *Registry) Pin(feed, id string) (*Version, error) {
	r.mu.Lock()
	v, ok := r.byID[id]
	if ok {
		r.everActive[id] = true
	}
	r.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownVersion, id)
	}
	r.pins.Store(feed, v)
	return v, nil
}

// Unpin removes a feed's pin; reports whether one existed.
func (r *Registry) Unpin(feed string) bool {
	_, had := r.pins.LoadAndDelete(feed)
	return had
}

// Pinned returns the version a feed is pinned to, if any.
func (r *Registry) Pinned(feed string) (*Version, bool) {
	if v, ok := r.pins.Load(feed); ok {
		return v.(*Version), true
	}
	return nil, false
}

// ResolveFor is the per-decision hot path: the feed's pinned version if
// one exists, else the active version (nil before the first Activate).
func (r *Registry) ResolveFor(feed string) *Version {
	if v, ok := r.pins.Load(feed); ok {
		return v.(*Version)
	}
	return r.active.Load()
}

// List snapshots every installed version in install order.
func (r *Registry) List() []VersionInfo {
	pinCount := make(map[string]int)
	r.pins.Range(func(_, v any) bool {
		pinCount[v.(*Version).id]++
		return true
	})
	active := r.active.Load()

	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]VersionInfo, 0, len(r.order))
	for _, v := range r.order {
		out = append(out, VersionInfo{
			ID:          v.id,
			Seq:         v.seq,
			Bytes:       len(v.blob),
			Active:      active != nil && active.id == v.id,
			EverActive:  r.everActive[v.id],
			PinnedFeeds: pinCount[v.id],
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}
