package server_test

import (
	"archive/tar"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/framelog"
	"repro/internal/infer"
	"repro/internal/server"
	"repro/pkg/occupancy"
)

// referenceRun streams frames through one uninterrupted, non-durable feed
// configured by mod and returns every decision.
func referenceRun(t *testing.T, mod func(*server.Config), frames []occupancy.Frame) []server.Event {
	t.Helper()
	_, ts, _ := newTestServer(t, mod)
	doReq(t, http.MethodPut, ts.URL+"/v1/feeds/room", nil)
	ch, cancel := streamEvents(t, ts.URL, "room")
	defer cancel()
	if code, ir, _ := ingest(t, ts.URL, "room", frames); code != http.StatusAccepted || ir.Accepted != len(frames) {
		t.Fatalf("reference ingest: code=%d accepted=%d", code, ir.Accepted)
	}
	return collect(t, ch, len(frames))
}

// handoffPair is two durable cluster nodes and a feed the epoch-1 map places
// on a, registered there, with a client routing by the map.
type handoffPair struct {
	a, b       *clusterNode
	dirA, dirB string
	feed       string
	cl         *occupancy.Client
	m1         occupancy.ShardMap
}

// newHandoffPair boots the pair; mod, when non-nil, adjusts each node's
// configuration after its durability is set.
func newHandoffPair(t *testing.T, mod func(self string, c *server.Config)) *handoffPair {
	t.Helper()
	p := &handoffPair{dirA: t.TempDir(), dirB: t.TempDir()}
	node := func(self, dir string) *clusterNode {
		return newClusterNode(t, self, func(c *server.Config) {
			c.Durability = framelog.Config{Dir: dir, Fsync: framelog.FsyncOff}
			if mod != nil {
				mod(self, c)
			}
		})
	}
	p.a, p.b = node("na", p.dirA), node("nb", p.dirB)
	p.m1 = occupancy.ShardMap{Epoch: 1, Nodes: []occupancy.ClusterNode{
		{ID: "na", Addr: p.a.ts.URL},
		{ID: "nb", Addr: p.b.ts.URL},
	}}
	installMap(t, p.m1, p.a, p.b)
	p.feed = feedOwnedBy(t, p.m1, "na")
	p.cl = newClient(t, p.a.ts.URL)
	if err := p.cl.RefreshShardMap(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := p.cl.RegisterFeed(context.Background(), p.feed); err != nil {
		t.Fatal(err)
	}
	return p
}

// drain takes a out of the topology — the epoch-2 map installed everywhere
// and on the client — and drains it, which closes the feed and seals its log.
func (p *handoffPair) drain(t *testing.T) {
	t.Helper()
	installMap(t, p.m1.Without("na"), p.a, p.b)
	if err := p.cl.RefreshShardMap(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := p.a.cl.DrainNode(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if p.a.srv.FeedCount() != 0 {
		t.Fatalf("%d feeds survived the drain on a", p.a.srv.FeedCount())
	}
}

// continueBitIdentically ingests frames on the feed's new owner, b, and
// requires the decisions want.
func (p *handoffPair) continueBitIdentically(t *testing.T, frames []occupancy.Frame, want []server.Event) {
	t.Helper()
	ch, cancel := streamEvents(t, p.b.ts.URL, p.feed)
	defer cancel()
	if n, err := p.cl.Ingest(context.Background(), p.feed, frames); err != nil || n != len(frames) {
		t.Fatalf("ingest after the hand-off: %d %v", n, err)
	}
	for i, ev := range collect(t, ch, len(frames)) {
		if !sameEvent(ev, want[i]) {
			t.Fatalf("decision %d after the hand-off diverged:\n got %+v\nwant %+v", want[i].Seq, ev, want[i])
		}
	}
}

// archiveOf fetches a feed's archive from a node raw.
func archiveOf(t *testing.T, base, feed string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/feeds/" + feed + "/log")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET log: %d %s (%v)", resp.StatusCode, body, err)
	}
	return body
}

// putArchive PUTs raw archive bytes to a node and decodes the answer.
func putArchive(t *testing.T, base, feed string, archive []byte) (int, server.ErrorBody) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, base+"/v1/feeds/"+feed+"/log", bytes.NewReader(archive))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var eb server.ErrorBody
	_ = jsonDecode(resp, &eb)
	return resp.StatusCode, eb
}

// names lists a directory; an absent one is empty.
func names(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		out = append(out, e.Name())
	}
	return out
}

// TestHandoffAcrossRetention: a feed whose log rotated past its retention
// cap hands off with its seqs continuing, and every later decision is the
// full history's — not that of a fresh runtime over the retained suffix.
func TestHandoffAcrossRetention(t *testing.T) {
	const cut, total = 40, 60
	no := false
	frames := durableFrames(total, 0)
	for i := range frames {
		frames[i].CSI[0] = 0.9
		if i >= 12 && i%2 == 0 {
			frames[i].CSI[0] = 0.2
		}
		if i >= 14 && i < 25 {
			frames[i].EnvOK = &no
		}
		frames[i].Dropped = i == 5 || i >= 8 && i <= 10
	}
	runtime := func(c *server.Config) {
		c.Fallback = ampPred{}
		c.PrimaryUsesEnv = true
		c.MaxHoldGap, c.WatchdogFrames, c.SmootherNeed = 2, 5, 3
	}
	want := referenceRun(t, runtime, frames)
	p := newHandoffPair(t, func(_ string, c *server.Config) {
		runtime(c)
		// 6 records per segment, keep 2: 40 frames retain only 30..39.
		c.Durability.SegmentMaxBytes, c.Durability.MaxSegments = 8+6*565, 2
	})
	ctx := context.Background()
	for k := 0; k < cut; k++ {
		if n, err := p.cl.Ingest(ctx, p.feed, frames[k:k+1]); err != nil || n != 1 {
			t.Fatalf("ingest of frame %d: %v", k, err)
		}
	}
	p.drain(t)
	if _, err := os.Stat(filepath.Join(p.dirA, p.feed, "00000000.flog")); !os.IsNotExist(err) {
		t.Fatalf("segment 0 was not retired (stat: %v)", err)
	}
	if info, _, err := p.cl.HandoffFeed(ctx, p.feed, p.a.ts.URL); err != nil || info.Decisions != cut {
		t.Fatalf("handoff: %+v %v, want %d decisions", info, err, cut)
	}
	if d, ok, err := p.cl.Occupancy(ctx, p.feed); err != nil || !ok || !sameEvent(d, want[cut-1]) {
		t.Fatalf("latest decision after the hand-off: %+v %v, want %+v", d, err, want[cut-1])
	}
	p.continueBitIdentically(t, frames[cut:], want[cut:])
}

// TestHandoffCrashStates builds, on the new owner's disk, the states a
// hand-off can die in, and boots a fresh server on each. An archive cut at
// any entry boundary or mid-entry is refused and leaves no feed directory, so
// the node boots without the feed, the old node's copy is untouched, and the
// retried hand-off goes through bit-identically. A directory renamed into
// place whose registration never ran is recovered at boot from its snapshot.
func TestHandoffCrashStates(t *testing.T) {
	const half = 20
	all := durableFrames(2*half, 0)
	want := referenceRun(t, nil, all)
	p := newHandoffPair(t, nil)
	ctx := context.Background()
	if n, err := p.cl.Ingest(ctx, p.feed, all[:half]); err != nil || n != half {
		t.Fatalf("first-half ingest: %d %v", n, err)
	}
	p.drain(t)
	archive := archiveOf(t, p.a.ts.URL, p.feed)
	before := copyDir(t, p.dirA)

	// Entry boundaries, the middle of each header and of each body, up to the
	// trailer's end: past it the archive is complete.
	var cuts []int
	tr := tar.NewReader(bytes.NewReader(archive))
	off := 0
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		cuts = append(cuts, off, off+256, off+512+int(hdr.Size)/2)
		off += 512 + (int(hdr.Size)+511)/512*512
	}
	if off+1024 != len(archive) {
		t.Fatalf("archive layout: entries end at %d, archive is %d bytes", off, len(archive))
	}
	for _, cut := range cuts {
		if code, eb := putArchive(t, p.b.ts.URL, p.feed, archive[:cut]); code != http.StatusBadRequest || eb.Code != server.CodeMalformedRequest {
			t.Fatalf("archive cut at %d of %d: %d %+v, want 400 %s", cut, len(archive), code, eb, server.CodeMalformedRequest)
		}
		if got := names(t, p.dirB); len(got) != 0 || p.b.srv.FeedCount() != 0 {
			t.Fatalf("archive cut at %d left %v on disk and %d feeds", cut, got, p.b.srv.FeedCount())
		}
	}
	cfg := server.Config{Primary: ampPred{}, Durability: framelog.Config{Dir: p.dirB, Fsync: framelog.FsyncOff}}
	if srv, err := server.New(cfg); err != nil || srv.FeedCount() != 0 {
		t.Fatalf("boot after the cut hand-offs: %v", err)
	} else {
		srv.Close()
	}
	for _, rel := range names(t, filepath.Join(p.dirA, p.feed)) {
		a, _ := os.ReadFile(filepath.Join(p.dirA, p.feed, rel))
		b, _ := os.ReadFile(filepath.Join(before, p.feed, rel))
		if !bytes.Equal(a, b) {
			t.Fatalf("the old node's %s changed", rel)
		}
	}

	// Renamed into place, never registered: the next boot recovers it.
	crashed := t.TempDir()
	if err := framelog.Import(crashed, p.feed, bytes.NewReader(archive), nil); err != nil {
		t.Fatal(err)
	}
	_, ts, reg := newTestServer(t, func(c *server.Config) {
		c.Durability = framelog.Config{Dir: crashed, Fsync: framelog.FsyncOff}
	})
	if recovered, restored := recoveryCounts(reg); recovered != half || restored != half {
		t.Fatalf("boot over an installed directory recovered %d frames, %d restored; want %d both", recovered, restored, half)
	}
	code, body, _ := doReq(t, http.MethodGet, ts.URL+"/v1/feeds/"+p.feed+"/occupancy", nil)
	var got server.Event
	if err := json.Unmarshal(body, &got); code != http.StatusOK || err != nil || !sameEvent(got, want[half-1]) {
		t.Fatalf("recovered decision: %d %s, want %+v", code, body, want[half-1])
	}

	// The retried hand-off is the ordinary one.
	if info, _, err := p.cl.HandoffFeed(ctx, p.feed, p.a.ts.URL); err != nil || info.Decisions != half {
		t.Fatalf("retried handoff: %+v %v", info, err)
	}
	p.continueBitIdentically(t, all[half:], want[half:])
}

// precisionPred scores like ampPred but names a precision and kernel, as an
// engine does, so a node serving it stamps its snapshots differently.
type precisionPred struct{ ampPred }

func (precisionPred) Precision() infer.Precision { return infer.PrecisionF32 }
func (precisionPred) Kernel() string             { return "generic" }

// TestHandoffRefusalsLeaveNothing: each refusal answers its code and leaves
// the new owner's disk as it was. A snapshot another scorer wrote — a pin
// the old node held alone, another precision — is scorer_mismatch; a feed
// live on the new owner, or whose directory is already there, is
// feed_active; only a draining node exports; and a PUT that reaches a node
// which does not own the feed comes back as its 307, not a retry.
func TestHandoffRefusalsLeaveNothing(t *testing.T) {
	ctx := context.Background()
	models := func(c *server.Config) {
		reg := infer.NewRegistry(nil)
		for _, blob := range []string{"p=0.90", "p=0.60"} {
			if _, _, err := reg.Install([]byte(blob), func(b []byte) (any, error) { return parseConstModel(b) }); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := reg.Activate(infer.BlobID([]byte("p=0.90"))); err != nil {
			t.Fatal(err)
		}
		c.Models = reg
	}
	for _, tc := range []struct {
		name string
		mod  func(self string, c *server.Config)
		pin  bool
	}{
		{"pinned on the old node only", func(_ string, c *server.Config) { models(c) }, true},
		{"another precision", func(self string, c *server.Config) {
			if self == "nb" {
				c.Primary = precisionPred{}
			}
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := newHandoffPair(t, tc.mod)
			if tc.pin {
				if err := p.cl.PinFeedModel(ctx, p.feed, infer.BlobID([]byte("p=0.60"))); err != nil {
					t.Fatal(err)
				}
			}
			if n, err := p.cl.Ingest(ctx, p.feed, durableFrames(8, 0)); err != nil || n != 8 {
				t.Fatalf("ingest: %d %v", n, err)
			}
			p.drain(t)
			_, _, err := p.cl.HandoffFeed(ctx, p.feed, p.a.ts.URL)
			var ae *occupancy.APIError
			if !asAPIError(err, &ae) || ae.Status != http.StatusConflict || ae.Code != server.CodeScorerMismatch {
				t.Fatalf("handoff: %v, want 409 %s", err, server.CodeScorerMismatch)
			}
			if got := names(t, p.dirB); len(got) != 0 || p.b.srv.FeedCount() != 0 {
				t.Fatalf("refusal left %v on disk and %d feeds", got, p.b.srv.FeedCount())
			}
		})
	}

	p := newHandoffPair(t, nil)
	code, body, _ := doReq(t, http.MethodGet, p.a.ts.URL+"/v1/feeds/"+p.feed+"/log", nil)
	if code != http.StatusConflict || !bytes.Contains(body, []byte(server.CodeFeedActive)) {
		t.Fatalf("export from a node that is not draining: %d %s", code, body)
	}
	if n, err := p.cl.Ingest(ctx, p.feed, durableFrames(8, 0)); err != nil || n != 8 {
		t.Fatalf("ingest: %d %v", n, err)
	}
	p.drain(t)
	// A PUT that lands on a node which does not own the feed is answered 307,
	// and the client cannot send the streamed body twice: an error, not a
	// retry.
	pinned, err := occupancy.NewClient(occupancy.ClientConfig{BaseURL: p.a.ts.URL, DisableRouting: true})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = pinned.HandoffFeed(ctx, p.feed, p.a.ts.URL)
	var ae *occupancy.APIError
	if !asAPIError(err, &ae) || ae.Status != http.StatusTemporaryRedirect || ae.Code != server.CodeMisplacedFeed {
		t.Fatalf("handoff through a non-owner: %v, want 307 %s", err, server.CodeMisplacedFeed)
	}
	if got := names(t, p.dirB); len(got) != 0 {
		t.Fatalf("the redirected handoff left %v on the owner", got)
	}
	// The feed reopened on the new owner before the hand-off: live there, then
	// closed with its directory left behind.
	if _, err := p.cl.RegisterFeed(ctx, p.feed); err != nil {
		t.Fatal(err)
	}
	before := copyDir(t, p.dirB)
	for _, state := range []string{"live", "closed"} {
		if state == "closed" {
			if err := p.cl.CloseFeed(ctx, p.feed); err != nil {
				t.Fatal(err)
			}
			before = copyDir(t, p.dirB)
		}
		_, _, err := p.cl.HandoffFeed(ctx, p.feed, p.a.ts.URL)
		if !occupancy.IsCode(err, server.CodeFeedActive) {
			t.Fatalf("handoff over a %s feed: %v, want %s", state, err, server.CodeFeedActive)
		}
		for _, rel := range []string{"", p.feed} {
			if a, b := names(t, filepath.Join(p.dirB, rel)), names(t, filepath.Join(before, rel)); len(a) != len(b) {
				t.Fatalf("handoff over a %s feed changed %s: %v, was %v", state, filepath.Join(p.dirB, rel), a, b)
			}
		}
	}
}
