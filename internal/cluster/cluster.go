// Package cluster is the placement layer of the sharded serving tier: it
// decides, deterministically, which occuserve node owns which feed. The
// primitives are deliberately boring —
//
//   - a consistent-hash Ring (FNV-1a over virtual nodes) mapping feed IDs
//     onto node IDs, so adding or removing one node moves only that node's
//     share of the feeds and every process that holds the same Map computes
//     the same owner for every feed;
//   - a Map, the versioned wire form of cluster membership: an Epoch that
//     only ever grows, the virtual-node count, and the node list. The Map is
//     what /v1/cluster serves and what an orchestrator PUTs to move the
//     cluster to a new topology;
//   - a State, the epoch-monotonic holder a server keeps: concurrent reads
//     of the current map and ring, updates accepted only when the epoch
//     strictly increases (a stale orchestrator can never roll the cluster
//     backwards).
//
// Placement never touches decision arithmetic: a feed's decision sequence is
// a function of its accepted frame sequence alone, so any placement of feeds
// onto nodes — and any mid-run re-placement via drain + handoff — yields
// decisions bit-identical to a single-node replay. That property is what
// lets the shard map be plain data instead of a consensus problem; see
// DESIGN.md §15.
package cluster

import (
	"errors"
	"fmt"
	"net/url"
	"sort"
	"sync"
)

// DefaultVNodes is the virtual-node count per physical node when a Map
// leaves VNodes zero. 64 vnodes keep the worst-case share imbalance across a
// handful of nodes under ~2x while the ring stays tiny (N*64 points).
const DefaultVNodes = 64

// Node is one serving process in the cluster.
type Node struct {
	// ID names the node uniquely within the map, e.g. "occu-0".
	ID string `json:"id"`
	// Addr is the node's base URL as clients reach it, e.g.
	// "http://10.0.0.7:8080". No trailing slash.
	Addr string `json:"addr"`
}

// Map is the versioned cluster membership: the complete description a client
// or node needs to compute every feed's owner. It is plain data — two
// processes holding equal Maps agree on every placement.
type Map struct {
	// Epoch versions the map. It only ever increases; a node or client
	// rejects any map whose epoch is not strictly newer than what it holds.
	// The zero map (epoch 0, no nodes) means "no cluster installed yet".
	Epoch int64 `json:"epoch"`
	// VNodes is the virtual-node count per node (0 = DefaultVNodes).
	VNodes int `json:"vnodes,omitempty"`
	// Nodes is the membership. Order is irrelevant to placement.
	Nodes []Node `json:"nodes"`
}

// Validate reports whether the map is usable. The zero value is valid (an
// empty, not-yet-installed map).
func (m Map) Validate() error {
	if m.Epoch < 0 {
		return fmt.Errorf("cluster: negative epoch %d", m.Epoch)
	}
	if m.VNodes < 0 {
		return fmt.Errorf("cluster: negative vnodes %d", m.VNodes)
	}
	if len(m.Nodes) > 0 && m.Epoch < 1 {
		return errors.New("cluster: a populated map needs epoch >= 1")
	}
	seen := make(map[string]bool, len(m.Nodes))
	for _, n := range m.Nodes {
		if n.ID == "" {
			return errors.New("cluster: node with empty id")
		}
		if seen[n.ID] {
			return fmt.Errorf("cluster: duplicate node id %q", n.ID)
		}
		seen[n.ID] = true
		u, err := url.Parse(n.Addr)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return fmt.Errorf("cluster: node %q has unusable addr %q (want e.g. http://host:port)", n.ID, n.Addr)
		}
	}
	return nil
}

// Empty reports whether the map carries no membership (nothing installed).
func (m Map) Empty() bool { return len(m.Nodes) == 0 }

// NodeByID returns the named node.
func (m Map) NodeByID(id string) (Node, bool) {
	for _, n := range m.Nodes {
		if n.ID == id {
			return n, true
		}
	}
	return Node{}, false
}

// Without returns a copy of the map with the named node removed and the
// epoch advanced — the map an orchestrator installs to drain a node out of
// the cluster.
func (m Map) Without(id string) Map {
	out := Map{Epoch: m.Epoch + 1, VNodes: m.VNodes}
	for _, n := range m.Nodes {
		if n.ID != id {
			out.Nodes = append(out.Nodes, n)
		}
	}
	return out
}

// Owner computes the feed's owning node by building a throwaway ring. For
// repeated lookups hold a Ring (or a State) instead.
func (m Map) Owner(feed string) (Node, bool) {
	r, err := NewRing(m)
	if err != nil {
		return Node{}, false
	}
	return r.Owner(feed)
}

// point is one virtual node on the ring.
type point struct {
	h  uint64
	id string
}

// Ring is the consistent-hash placement function compiled from a Map. It is
// immutable and safe for concurrent use.
type Ring struct {
	points []point
	nodes  map[string]Node
}

// NewRing compiles the map into a ring. An empty map yields an empty ring
// whose Owner always reports false.
func NewRing(m Map) (*Ring, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	vn := m.VNodes
	if vn == 0 {
		vn = DefaultVNodes
	}
	r := &Ring{
		points: make([]point, 0, len(m.Nodes)*vn),
		nodes:  make(map[string]Node, len(m.Nodes)),
	}
	for _, n := range m.Nodes {
		r.nodes[n.ID] = n
		for v := 0; v < vn; v++ {
			r.points = append(r.points, point{h: fnv64a(fmt.Sprintf("%s#%d", n.ID, v)), id: n.ID})
		}
	}
	// Sort by hash, tie-broken by id, so equal Maps compile to identical
	// rings regardless of node order.
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].h != r.points[j].h {
			return r.points[i].h < r.points[j].h
		}
		return r.points[i].id < r.points[j].id
	})
	return r, nil
}

// Owner returns the node owning the feed: the first virtual node clockwise
// of the feed's hash. false when the ring is empty.
func (r *Ring) Owner(feed string) (Node, bool) {
	if len(r.points) == 0 {
		return Node{}, false
	}
	h := fnv64a(feed)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].h >= h })
	if i == len(r.points) {
		i = 0 // wrap around
	}
	return r.nodes[r.points[i].id], true
}

// fnv64a is the 64-bit FNV-1a hash run through a splitmix64 finalizer. FNV
// alone clumps on short, similar keys ("feed-000", "occu-1#17"), badly
// enough to starve ring nodes; the finalizer gives full avalanche. The
// function is fixed for all time — it is a wire-shareable contract (every
// process holding the same Map must compute the same owners), not a
// per-process accident.
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// State is a server's live view of the cluster: the current map and its
// compiled ring, swapped atomically and only ever forward in epoch.
type State struct {
	mu   sync.RWMutex
	m    Map
	ring *Ring
}

// NewState builds a state holding the given map (commonly the zero Map,
// updated later via Update when the orchestrator installs membership).
func NewState(m Map) (*State, error) {
	r, err := NewRing(m)
	if err != nil {
		return nil, err
	}
	return &State{m: m, ring: r}, nil
}

// Map returns the current map.
func (s *State) Map() Map {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.m
}

// Owner returns the current owner of the feed (false when no map is
// installed).
func (s *State) Owner(feed string) (Node, bool) {
	s.mu.RLock()
	r := s.ring
	s.mu.RUnlock()
	return r.Owner(feed)
}

// ErrStaleEpoch rejects an update whose epoch does not advance the state.
var ErrStaleEpoch = errors.New("cluster: map epoch is not newer than the installed one")

// Update installs a new map. The epoch must be strictly greater than the
// installed one; a stale or equal epoch returns ErrStaleEpoch and changes
// nothing.
func (s *State) Update(m Map) error {
	r, err := NewRing(m)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if m.Epoch <= s.m.Epoch {
		return fmt.Errorf("%w (have %d, got %d)", ErrStaleEpoch, s.m.Epoch, m.Epoch)
	}
	s.m, s.ring = m, r
	return nil
}
