package server_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/infer"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/pkg/occupancy"
)

// clusterNode is one test server booted as a cluster member (or router).
type clusterNode struct {
	srv *server.Server
	ts  *httptest.Server
	cl  *occupancy.Client // pinned to this node, no map routing
	reg *obs.Registry
}

// newClusterNode boots a cluster-configured server with no map installed
// yet (the test installs one once every node's URL is known).
func newClusterNode(t *testing.T, self string, mod func(*server.Config)) *clusterNode {
	t.Helper()
	srv, ts, reg := newTestServer(t, func(c *server.Config) {
		c.Cluster = &server.ClusterConfig{Self: self}
		if mod != nil {
			mod(c)
		}
	})
	return &clusterNode{srv: srv, ts: ts, cl: newClient(t, ts.URL), reg: reg}
}

// installMap PUTs the map on every node.
func installMap(t *testing.T, m occupancy.ShardMap, nodes ...*clusterNode) {
	t.Helper()
	for _, n := range nodes {
		if err := n.cl.UpdateShardMap(context.Background(), m); err != nil {
			t.Fatalf("installing map on %s: %v", n.ts.URL, err)
		}
	}
}

// feedOwnedBy finds a feed id the map places on the given node.
func feedOwnedBy(t *testing.T, m occupancy.ShardMap, nodeID string) string {
	t.Helper()
	for i := 0; i < 4096; i++ {
		id := fmt.Sprintf("hand-%04d", i)
		if owner, ok := m.Owner(id); ok && owner.ID == nodeID {
			return id
		}
	}
	t.Fatalf("no feed maps to %s", nodeID)
	return ""
}

// TestMisplacedFeedRouting: a request for a feed another node owns answers
// 307 with Location and the misplaced_feed envelope; a redirect-following
// client lands on the owner; a shard-map-aware client goes straight there.
func TestMisplacedFeedRouting(t *testing.T) {
	n0 := newClusterNode(t, "n0", nil)
	n1 := newClusterNode(t, "n1", nil)
	m := occupancy.ShardMap{Epoch: 1, Nodes: []occupancy.ClusterNode{
		{ID: "n0", Addr: n0.ts.URL},
		{ID: "n1", Addr: n1.ts.URL},
	}}
	installMap(t, m, n0, n1)
	feed := feedOwnedBy(t, m, "n1")

	// Wire level: 307 + Location + envelope, not served locally.
	noFollow := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	req, _ := http.NewRequest(http.MethodPut, n0.ts.URL+"/v1/feeds/"+feed, nil)
	resp, err := noFollow.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var eb server.ErrorBody
	dec := jsonDecode(resp, &eb)
	if resp.StatusCode != http.StatusTemporaryRedirect || dec != nil || eb.Code != server.CodeMisplacedFeed {
		t.Fatalf("misplaced register on n0: %d %+v (%v)", resp.StatusCode, eb, dec)
	}
	if want := n1.ts.URL + "/v1/feeds/" + feed; resp.Header.Get("Location") != want {
		t.Fatalf("Location %q, want %q", resp.Header.Get("Location"), want)
	}

	// A plain client (no routing) follows the 307 and the feed lands on n1.
	if _, err := n0.cl.RegisterFeed(context.Background(), feed); err != nil {
		t.Fatalf("redirect-following register: %v", err)
	}
	if n1.srv.FeedCount() != 1 || n0.srv.FeedCount() != 0 {
		t.Fatalf("feed landed on the wrong node: n0=%d n1=%d", n0.srv.FeedCount(), n1.srv.FeedCount())
	}

	// A shard-map-aware client routes every call straight to the owner —
	// ingest and occupancy work against either node's base URL.
	routed := newClient(t, n0.ts.URL)
	if err := routed.RefreshShardMap(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n, err := routed.Ingest(context.Background(), feed, mkFrames(2, 0.9)); err != nil || n != 2 {
		t.Fatalf("routed ingest: %d %v", n, err)
	}
	waitFor(t, 2*time.Second, "routed decision", func() bool {
		d, ok, err := routed.Occupancy(context.Background(), feed)
		return err == nil && ok && d.Seq == 1
	})
}

// TestShardMapEndpointEpochs pins the /v1/cluster contract: 404 no_cluster
// on standalone nodes, local serving before any map is installed, epoch
// monotonicity (409 stale_epoch), and the install round trip.
func TestShardMapEndpointEpochs(t *testing.T) {
	ctx := context.Background()

	// Standalone node: no cluster surface, but RefreshShardMap degrades
	// gracefully and requests serve locally.
	_, ts, _ := newTestServer(t, nil)
	cl := newClient(t, ts.URL)
	if _, err := cl.Cluster(ctx); !occupancy.IsCode(err, server.CodeNoCluster) {
		t.Fatalf("cluster info on standalone node: %v", err)
	}
	if err := cl.RefreshShardMap(ctx); err != nil {
		t.Fatalf("refresh against standalone node: %v", err)
	}

	// Cluster node before any map: owns everything, serves locally.
	n0 := newClusterNode(t, "n0", nil)
	info, err := n0.cl.Cluster(ctx)
	if err != nil || info.Self != "n0" || !info.Map.Empty() {
		t.Fatalf("pre-install cluster info: %+v %v", info, err)
	}
	if _, err := n0.cl.RegisterFeed(ctx, "local-feed"); err != nil {
		t.Fatalf("register before map install: %v", err)
	}

	m := occupancy.ShardMap{Epoch: 1, Nodes: []occupancy.ClusterNode{{ID: "n0", Addr: n0.ts.URL}}}
	if err := n0.cl.UpdateShardMap(ctx, m); err != nil {
		t.Fatal(err)
	}
	if err := n0.cl.UpdateShardMap(ctx, m); !occupancy.IsCode(err, server.CodeStaleEpoch) {
		t.Fatalf("equal epoch accepted: %v", err)
	}
	var ae *occupancy.APIError
	if err := n0.cl.UpdateShardMap(ctx, m); !asAPIError(err, &ae) || ae.Status != http.StatusConflict {
		t.Fatalf("stale epoch status: %v", err)
	}
	m.Epoch = 2
	if err := n0.cl.UpdateShardMap(ctx, m); err != nil {
		t.Fatal(err)
	}
	info, err = n0.cl.Cluster(ctx)
	if err != nil || info.Map.Epoch != 2 || len(info.Map.Nodes) != 1 {
		t.Fatalf("post-install cluster info: %+v %v", info, err)
	}
}

// TestModelDistribution: a node serves its active model version to
// Client.FetchModel and reports its SHA-256 on /v1/cluster, so a
// cluster can prove weight identity before trusting placement-independent
// decisions.
func TestModelDistribution(t *testing.T) {
	blob := []byte("detector-bundle-bytes")
	reg := infer.NewRegistry(nil)
	v, _, err := reg.Install(blob, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Activate(v.ID()); err != nil {
		t.Fatal(err)
	}
	n0 := newClusterNode(t, "n0", func(c *server.Config) { c.Models = reg })
	ctx := context.Background()

	got, err := n0.cl.FetchModel(ctx)
	if err != nil || string(got) != string(blob) {
		t.Fatalf("fetch model: %q %v", got, err)
	}
	sum := sha256.Sum256(blob)
	info, err := n0.cl.Cluster(ctx)
	if err != nil || info.ModelSHA256 != hex.EncodeToString(sum[:]) {
		t.Fatalf("model sha on cluster info: %+v %v", info, err)
	}
	if info.ModelSHA256 != v.ID() {
		t.Fatalf("registry id %s != advertised sha %s", v.ID(), info.ModelSHA256)
	}

	// A node without a registry answers 404 no_model.
	bare := newClusterNode(t, "n1", nil)
	if _, err := bare.cl.FetchModel(ctx); !occupancy.IsCode(err, server.CodeNoModel) {
		t.Fatalf("fetch model without registry: %v", err)
	}
}

// TestDrainHandoffBitIdentity is the cluster tier's core determinism gate: a
// feed serves its first half on node A, A drains out of the topology, and the
// feed moves to node B as its log directory. B opens it exactly as a restart
// would — every handed-off frame restored from the snapshot A's close wrote,
// none replayed, B's latest decision A's last one — and the second half
// continues there bit-identically to one uninterrupted single-node run.
func TestDrainHandoffBitIdentity(t *testing.T) {
	const half = 20
	all := durableFrames(2*half, 0)
	want := referenceRun(t, nil, all)
	p := newHandoffPair(t, nil)
	ctx := context.Background()

	ach, acancel := streamEvents(t, p.a.ts.URL, p.feed)
	defer acancel()
	if n, err := p.cl.Ingest(ctx, p.feed, all[:half]); err != nil || n != half {
		t.Fatalf("first-half ingest: %d %v", n, err)
	}
	for i, ev := range collect(t, ach, half) {
		if !sameEvent(ev, want[i]) {
			t.Fatalf("node A event %d diverged:\n got %+v\nwant %+v", i, ev, want[i])
		}
	}

	p.drain(t)
	if p.cl.ShardMap().Epoch != 2 {
		t.Fatalf("client routes by epoch %d, want 2", p.cl.ShardMap().Epoch)
	}
	info, moved, err := p.cl.HandoffFeed(ctx, p.feed, p.a.ts.URL)
	if err != nil || info.Decisions != half || moved == 0 {
		t.Fatalf("handoff: %+v, %d bytes, %v; want %d decisions", info, moved, err, half)
	}
	if p.b.srv.FeedCount() != 1 {
		t.Fatal("feed did not land on B")
	}
	if recovered, restored := recoveryCounts(p.b.reg); recovered != half || restored != half {
		t.Fatalf("B recovered %d frames, %d of them restored; want all %d restored, none replayed", recovered, restored, half)
	}
	if d, ok, err := p.cl.Occupancy(ctx, p.feed); err != nil || !ok || !sameEvent(d, want[half-1]) {
		t.Fatalf("B's latest decision: %+v ok=%v %v, want A's last %+v", d, ok, err, want[half-1])
	}
	p.continueBitIdentically(t, all[half:], want[half:])
}

// jsonDecode decodes a response body and closes it.
func jsonDecode(resp *http.Response, v any) error {
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}

// asAPIError is errors.As sugar for the exported error type.
func asAPIError(err error, ae **occupancy.APIError) bool {
	return errors.As(err, ae)
}
