package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/framelog"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/pkg/occupancy"
)

// The cluster harness is the end-to-end proof of the sharding contract: a
// feed's decision sequence is a pure function of its accepted frame
// sequence, so decisions must be bit-identical to a single-node replay
// regardless of placement, node count, or a node being drained out of the
// map mid-run. The run:
//
//  1. every feed streams the first half of its frames at whichever node the
//     shard map places it on;
//  2. at the halfway barrier an orchestrator installs the epoch+1 map with
//     one node removed, drains that node (accepted frames all get their
//     decisions, feed logs seal), and the harness verifies zero loss: each
//     moved feed's sealed log holds exactly its acknowledged frames;
//  3. each moved feed is handed off — its log re-ingested through the new
//     owner's normal ingest path — and streaming resumes for the second
//     half;
//  4. every feed's full decision sequence (for moved feeds, as recomputed by
//     the new owner) must match a local stream.Runtime replay bit for bit,
//     and the old owner's pre-drain prefix must agree with the new owner's
//     recomputation.
//
// With an empty -target the harness boots the whole cluster in-process;
// with -target it drives a real occuserve cluster (scripts/cluster_smoke.sh)
// and takes membership — and the reference weights, via /v1/models — from
// the cluster itself.

// harnessNode is one serving node under test; srv is nil for external nodes.
type harnessNode struct {
	id   string
	addr string
	srv  *server.Server
}

// runClusterMode drives a sharded cluster of n nodes (external: taken from
// the target's shard map) with a mid-run drain of drainID.
func runClusterMode(det *core.Detector, recs []dataset.Record, feeds, perFeed, workers int,
	n int, drainID, target string, reg *obs.Registry) {

	ctx := context.Background()
	half := perFeed / 2
	if half < 1 {
		fail(fmt.Errorf("cluster: -per-feed must be >= 2 (got %d)", perFeed))
	}
	inProcess := target == ""

	var nodes []harnessNode
	var m1 occupancy.ShardMap
	var cl *occupancy.Client

	if inProcess {
		if n < 2 {
			fail(fmt.Errorf("cluster: -cluster needs at least 2 nodes (got %d)", n))
		}
		// Cluster members serve the *distributed* bundle, whose weights are
		// stored float32 — a freshly-trained f64 detector is not
		// bit-identical to its own saved form. Normalize the harness's
		// detector the same way so the reference runs the cluster's exact
		// weights.
		var buf bytes.Buffer
		fail(det.Save(&buf))
		var err error
		det, err = core.LoadDetector(bytes.NewReader(buf.Bytes()))
		fail(err)

		lisv := make([]net.Listener, n)
		m1 = occupancy.ShardMap{Epoch: 1}
		for i := range lisv {
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			fail(err)
			lisv[i] = lis
			m1.Nodes = append(m1.Nodes, occupancy.ClusterNode{
				ID: fmt.Sprintf("n%d", i), Addr: "http://" + lis.Addr().String(),
			})
		}
		logRoot, err := os.MkdirTemp("", "loadgen-cluster-*")
		fail(err)
		defer os.RemoveAll(logRoot)
		for i, nd := range m1.Nodes {
			eng, err := core.NewDetectorEngine(det, core.ServeConfig{Workers: workers, Observer: reg})
			fail(err)
			defer eng.Close()
			srv, err := server.New(server.Config{
				Primary:        eng,
				PrimaryUsesEnv: det.Features != dataset.FeatCSI,
				StreamBuffer:   perFeed,
				Observer:       reg,
				// Durability is what makes handoff possible: the sealed log
				// of a drained node is the authoritative accepted-frame
				// history its successor re-ingests.
				Durability: framelog.Config{Dir: filepath.Join(logRoot, nd.ID), Observer: reg},
				Cluster:    &server.ClusterConfig{Self: nd.ID, Map: m1},
			})
			fail(err)
			hs := &http.Server{Handler: srv.Handler()}
			go hs.Serve(lisv[i])
			defer hs.Close()
			nodes = append(nodes, harnessNode{id: nd.ID, addr: nd.Addr, srv: srv})
		}
		if drainID == "" {
			drainID = nodes[n-1].id
		}
		cl = newLoadClient(nodes[0].addr, feeds)
		fmt.Printf("loadgen: in-process cluster of %d nodes; will drain %q mid-run\n", n, drainID)
	} else {
		cl = newLoadClient(target, feeds)
		fail(cl.RefreshShardMap(ctx))
		m1 = cl.ShardMap()
		if m1.Empty() {
			fail(fmt.Errorf("cluster: target %s serves no shard map", target))
		}
		for _, nd := range m1.Nodes {
			nodes = append(nodes, harnessNode{id: nd.ID, addr: nd.Addr})
		}
		if drainID == "" {
			drainID = nodes[len(nodes)-1].id
		}
		// The reference must run the cluster's exact weights; every member
		// serves the bundle it distributes, so fetch it from the target.
		blob, err := cl.FetchModel(ctx)
		fail(err)
		det, err = core.LoadDetector(bytes.NewReader(blob))
		fail(err)
		fmt.Printf("loadgen: external cluster of %d nodes (map epoch %d); will drain %q mid-run; reference bundle %d bytes\n",
			len(nodes), m1.Epoch, drainID, len(blob))
	}

	drained, ok := m1.NodeByID(drainID)
	if !ok {
		fail(fmt.Errorf("cluster: -drain-node %q is not in the shard map", drainID))
	}
	m2 := m1.Without(drainID)
	ring, err := cluster.NewRing(m1)
	fail(err)

	var accepted, events, gaps, diverged, movedFeeds, handedOff atomic.Int64
	var barrier, wg sync.WaitGroup
	barrier.Add(feeds)
	resume := make(chan struct{})
	start := time.Now()

	for f := 0; f < feeds; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			id := fmt.Sprintf("feed-%03d", f)
			owner, ok := ring.Owner(id)
			if !ok {
				fail(fmt.Errorf("cluster: no owner for %s", id))
			}
			moved := owner.ID == drainID

			if _, err := cl.RegisterFeed(ctx, id); err != nil {
				fail(fmt.Errorf("cluster: register %s: %w", id, err))
			}
			stA, err := cl.StreamDecisions(ctx, id, true)
			if err != nil {
				fail(fmt.Errorf("cluster: stream %s: %w", id, err))
			}
			var gotA []occupancy.Decision
			doneA := make(chan struct{})
			go func() {
				defer close(doneA)
				defer stA.Close()
				for {
					d, err := stA.Next()
					if err != nil {
						return
					}
					gotA = append(gotA, d)
				}
			}()

			send := func(from, to int) {
				pending := make([]occupancy.Frame, 0, httpBatch)
				flush := func() {
					if len(pending) == 0 {
						return
					}
					nn, err := cl.Ingest(ctx, id, pending)
					accepted.Add(int64(nn))
					if err != nil {
						fail(fmt.Errorf("cluster: ingest %s: %w", id, err))
					}
					pending = pending[:0]
				}
				for k := from; k < to; k++ {
					pending = append(pending, httpFrame(recs, f, k))
					if len(pending) == httpBatch {
						flush()
					}
				}
				flush()
			}

			send(0, half)
			barrier.Done()
			<-resume

			if !moved {
				send(half, perFeed)
				if err := cl.CloseFeed(ctx, id); err != nil {
					fail(fmt.Errorf("cluster: close %s: %w", id, err))
				}
				<-doneA
				events.Add(int64(len(gotA)))
				countGaps(gotA, &gaps)
				verifyDecisions(id, f, gotA, perFeed, recs, det, &diverged)
				return
			}

			movedFeeds.Add(1)
			// The drain tore the feed down on the old owner; its stream
			// ended after delivering exactly the decisions it made.
			<-doneA
			if len(gotA) != half {
				fail(fmt.Errorf("cluster: %s: old owner streamed %d decisions before drain, want %d", id, len(gotA), half))
			}
			// Zero-loss gate: the sealed log must hold every acknowledged
			// frame, in order.
			logged, err := cl.At(drained.Addr).FeedLog(ctx, id)
			if err != nil {
				fail(fmt.Errorf("cluster: log pull %s from %s: %w", id, drainID, err))
			}
			if len(logged) != half {
				fail(fmt.Errorf("cluster: %s: LOST FRAMES: %d acknowledged on %s, %d logged", id, half, drainID, len(logged)))
			}
			for i, lf := range logged {
				if lf.Seq != i {
					fail(fmt.Errorf("cluster: %s: log seq %d at position %d", id, lf.Seq, i))
				}
			}
			// Hand the history to the new owner: register (routed by the new
			// map), subscribe first so the recomputed decisions are
			// observable, then replay the log through normal ingest.
			if _, err := cl.RegisterFeed(ctx, id); err != nil {
				fail(fmt.Errorf("cluster: re-register %s: %w", id, err))
			}
			stB, err := cl.StreamDecisions(ctx, id, true)
			if err != nil {
				fail(fmt.Errorf("cluster: re-stream %s: %w", id, err))
			}
			gotB := make([]occupancy.Decision, 0, perFeed)
			doneB := make(chan struct{})
			go func() {
				defer close(doneB)
				defer stB.Close()
				for {
					d, err := stB.Next()
					if err != nil {
						return
					}
					gotB = append(gotB, d)
				}
			}()
			nh, err := cl.HandoffFeed(ctx, id, drained.Addr)
			if err != nil {
				fail(fmt.Errorf("cluster: handoff %s: %w", id, err))
			}
			if nh != half {
				fail(fmt.Errorf("cluster: handoff %s moved %d frames, want %d", id, nh, half))
			}
			handedOff.Add(int64(nh))

			send(half, perFeed)
			if err := cl.CloseFeed(ctx, id); err != nil {
				fail(fmt.Errorf("cluster: close %s: %w", id, err))
			}
			<-doneB
			events.Add(int64(len(gotB)))
			countGaps(gotB, &gaps)
			// The new owner recomputed the whole sequence from the handed-off
			// history plus the live tail; all of it must match the reference…
			verifyDecisions(id, f, gotB, perFeed, recs, det, &diverged)
			// …and the old owner's pre-drain prefix must agree with the new
			// owner's recomputation, bit for bit.
			for k := range gotA {
				if k >= len(gotB) || !sameDecision(gotA[k], gotB[k]) {
					diverged.Add(1)
				}
			}
		}(f)
	}

	// Orchestrate the drain at the halfway barrier: install the shrunken
	// map everywhere, re-route the client, drain the node out, resume.
	barrier.Wait()
	fmt.Printf("loadgen: cluster: %d frames acknowledged; installing epoch %d map without %q and draining it\n",
		accepted.Load(), m2.Epoch, drainID)
	for _, nd := range nodes {
		if err := cl.At(nd.addr).UpdateShardMap(ctx, m2); err != nil {
			fail(fmt.Errorf("cluster: installing map on %s: %w", nd.id, err))
		}
	}
	if !inProcess {
		// A thin router in front of the cluster is not in the map; it needs
		// the new topology too or it keeps forwarding to the drained node.
		tb := strings.TrimSuffix(target, "/")
		member := false
		for _, nd := range nodes {
			if strings.TrimSuffix(nd.addr, "/") == tb {
				member = true
			}
		}
		if !member {
			if err := cl.UpdateShardMap(ctx, m2); err != nil {
				fail(fmt.Errorf("cluster: installing map on router %s: %w", target, err))
			}
		}
	}
	fail(cl.RefreshShardMap(ctx))
	if err := cl.At(drained.Addr).DrainNode(ctx); err != nil {
		fail(fmt.Errorf("cluster: draining %s: %w", drainID, err))
	}
	if inProcess {
		for _, nd := range nodes {
			if nd.id == drainID && nd.srv.FeedCount() != 0 {
				fail(fmt.Errorf("cluster: %s still has %d feeds after drain", nd.id, nd.srv.FeedCount()))
			}
		}
	}
	close(resume)
	wg.Wait()
	elapsed := time.Since(start)

	if inProcess {
		for _, nd := range nodes {
			if c := nd.srv.FeedCount(); c != 0 {
				fail(fmt.Errorf("cluster: node %s still has %d feeds after the run", nd.id, c))
			}
		}
	}
	fmt.Printf("loadgen: cluster %10.0f frames/sec   (%d nodes, %d feeds, %d frames, %v)\n",
		float64(accepted.Load())/elapsed.Seconds(), len(nodes), feeds, accepted.Load(), elapsed.Round(time.Millisecond))
	fmt.Printf("loadgen: cluster stats: %d feeds handed off %d frames from %q, %d events streamed, %d seq gaps\n",
		movedFeeds.Load(), handedOff.Load(), drainID, events.Load(), gaps.Load())
	if movedFeeds.Load() == 0 {
		fail(fmt.Errorf("cluster: no feed was placed on %q — the drain exercised nothing", drainID))
	}
	if d := diverged.Load(); d != 0 {
		fail(fmt.Errorf("cluster: %d decisions diverged from the single-node reference", d))
	}
	if gaps.Load() != 0 {
		fail(fmt.Errorf("cluster: event streams had seq gaps"))
	}
	fmt.Println("loadgen: cluster verify: every decision bit-identical to the single-node reference; zero acknowledged frames lost across the drain")
}

// countGaps counts positions where an event's seq disagrees with its stream
// position (a dropped or reordered event).
func countGaps(got []occupancy.Decision, gaps *atomic.Int64) {
	for i := range got {
		if int(got[i].Seq) != i {
			gaps.Add(1)
		}
	}
}

// sameDecision reports bit-exact equality of two decision events.
func sameDecision(a, b occupancy.Decision) bool {
	return a.Seq == b.Seq && math.Float64bits(a.P) == math.Float64bits(b.P) &&
		a.Pred == b.Pred && a.State == b.State && a.Mode == b.Mode
}
