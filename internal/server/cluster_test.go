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

	"repro/internal/framelog"
	"repro/internal/infer"
	"repro/internal/server"
	"repro/pkg/occupancy"
)

// clusterNode is one test server booted as a cluster member (or router).
type clusterNode struct {
	srv *server.Server
	ts  *httptest.Server
	cl  *occupancy.Client // pinned to this node, no map routing
}

// newClusterNode boots a cluster-configured server with no map installed
// yet (the test installs one once every node's URL is known).
func newClusterNode(t *testing.T, self string, mod func(*server.Config)) *clusterNode {
	t.Helper()
	srv, ts, _ := newTestServer(t, func(c *server.Config) {
		c.Cluster = &server.ClusterConfig{Self: self}
		if mod != nil {
			mod(c)
		}
	})
	return &clusterNode{srv: srv, ts: ts, cl: newClient(t, ts.URL)}
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

// TestDrainHandoffBitIdentity is the cluster tier's core determinism gate:
// a feed serves its first half on node A, A drains out of the topology, the
// feed's durable log is pulled and re-ingested on node B, and the second
// half continues there — and the full decision sequence (A's half, B's
// replayed half, B's live half) is bit-identical to one uninterrupted
// single-node run, with zero acknowledged frames lost.
func TestDrainHandoffBitIdentity(t *testing.T) {
	const half = 20
	all := durableFrames(2*half, 0)
	ctx := context.Background()

	// Reference: one standalone, non-durable node sees every frame.
	_, rts, _ := newTestServer(t, nil)
	rcl := newClient(t, rts.URL)
	if _, err := rcl.RegisterFeed(ctx, "room"); err != nil {
		t.Fatal(err)
	}
	rch, rcancel := streamEvents(t, rts.URL, "room")
	defer rcancel()
	if n, err := rcl.Ingest(ctx, "room", all); err != nil || n != 2*half {
		t.Fatalf("reference ingest: %d %v", n, err)
	}
	want := collect(t, rch, 2*half)

	// Cluster: A and B, both durable, feed placed on A by the epoch-1 map.
	durable := func(dir string) func(*server.Config) {
		return func(c *server.Config) {
			c.Durability = framelog.Config{Dir: dir, Fsync: framelog.FsyncOff}
		}
	}
	na := newClusterNode(t, "na", durable(t.TempDir()))
	nb := newClusterNode(t, "nb", durable(t.TempDir()))
	m1 := occupancy.ShardMap{Epoch: 1, Nodes: []occupancy.ClusterNode{
		{ID: "na", Addr: na.ts.URL},
		{ID: "nb", Addr: nb.ts.URL},
	}}
	installMap(t, m1, na, nb)
	feed := feedOwnedBy(t, m1, "na")
	// The frames carry the feed-independent pattern, so the reference
	// sequence applies to any feed id.

	cl := newClient(t, na.ts.URL)
	if err := cl.RefreshShardMap(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.RegisterFeed(ctx, feed); err != nil {
		t.Fatal(err)
	}
	ach, acancel := streamEvents(t, na.ts.URL, feed)
	defer acancel()
	if n, err := cl.Ingest(ctx, feed, all[:half]); err != nil || n != half {
		t.Fatalf("first-half ingest: %d %v", n, err)
	}
	gotA := collect(t, ach, half)
	for i, ev := range gotA {
		if !sameEvent(ev, want[i]) {
			t.Fatalf("node A event %d diverged:\n got %+v\nwant %+v", i, ev, want[i])
		}
	}

	// Topology change: A leaves. Install everywhere, then drain A — after
	// which every acknowledged frame has its decision and A's log is sealed.
	m2 := m1.Without("na")
	installMap(t, m2, na, nb)
	if err := cl.RefreshShardMap(ctx); err != nil {
		t.Fatalf("client map refresh: %v", err)
	}
	if cl.ShardMap().Epoch != m2.Epoch {
		t.Fatalf("client routes by epoch %d, want %d", cl.ShardMap().Epoch, m2.Epoch)
	}
	if err := cl.At(na.ts.URL).DrainNode(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if na.srv.FeedCount() != 0 {
		t.Fatalf("%d feeds survived drain on A", na.srv.FeedCount())
	}

	// Zero lost acknowledged frames: A's sealed log holds exactly the
	// accepted first half.
	logged, err := cl.At(na.ts.URL).FeedLog(ctx, feed)
	if err != nil {
		t.Fatal(err)
	}
	if len(logged) != half {
		t.Fatalf("A's log holds %d frames, want %d", len(logged), half)
	}
	for i, lf := range logged {
		if lf.Seq != i {
			t.Fatalf("log frame %d carries seq %d", i, lf.Seq)
		}
	}

	// Handoff: register on the new owner, subscribe, replay the history
	// through the normal ingest path, then continue live.
	if _, err := cl.RegisterFeed(ctx, feed); err != nil {
		t.Fatal(err)
	}
	if nb.srv.FeedCount() != 1 {
		t.Fatal("feed did not land on B after the topology change")
	}
	bch, bcancel := streamEvents(t, nb.ts.URL, feed)
	defer bcancel()
	if n, err := cl.HandoffFeed(ctx, feed, na.ts.URL); err != nil || n != half {
		t.Fatalf("handoff: %d %v", n, err)
	}
	if n, err := cl.Ingest(ctx, feed, all[half:]); err != nil || n != half {
		t.Fatalf("second-half ingest: %d %v", n, err)
	}
	gotB := collect(t, bch, 2*half)
	for i, ev := range gotB {
		if !sameEvent(ev, want[i]) {
			t.Fatalf("node B event %d diverged:\n got %+v\nwant %+v", i, ev, want[i])
		}
	}
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
