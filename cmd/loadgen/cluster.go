package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"repro/pkg/occupancy"
)

// The cluster gate is the end-to-end proof of the sharding contract: a
// feed's decision sequence is a pure function of its accepted frame
// sequence, so decisions must be bit-identical to a single-node replay
// regardless of placement, node count, or a node being drained out of the
// map mid-run. The run:
//
//  1. every feed streams the first half of its frames at whichever node the
//     shard map places it on;
//  2. the harness installs the epoch+1 map with one node removed and drains
//     that node (accepted frames all get their decisions, feed logs seal);
//  3. each moved feed's pre-drain decisions must match the replay; the feed
//     then moves as its directory — the drained node's sealed segments and
//     snapshot streamed into the new owner, which opens the feed as a restart
//     would. The new owner must hold a decision for every acknowledged frame,
//     and its /metrics must show every moved frame restored from a snapshot
//     and none replayed. This phase is timed, and the bytes moved counted;
//  4. every feed streams its second half, and its decisions — for a moved
//     feed, from its first decision on the new owner — must match the replay
//     bit for bit.
//
// With an empty target the harness boots the whole cluster in-process; with
// a target it drives a real occuserve cluster (scripts/cluster_smoke.sh) and
// takes membership — and the reference weights, via /v1/models — from the
// cluster itself.
func runCluster(ctx context.Context, fx fixture, feeds, perFeed, n int, drainID, target string) error {
	half := perFeed / 2
	var local []*node
	boot := occupancy.ShardMap{Epoch: 1}
	if target == "" {
		if n < 2 {
			return fmt.Errorf("cluster: -cluster needs at least 2 nodes (got %d)", n)
		}
		logRoot, err := os.MkdirTemp("", "loadgen-cluster-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(logRoot)
		for i := 0; i < n; i++ {
			id := fmt.Sprintf("n%d", i)
			nd, err := bootNode(fx.bundle, occupancy.ServeConfig{
				StreamBuffer: perFeed,
				// Durability is what makes hand-off possible: a drained
				// node's sealed log and snapshot are what its successor
				// opens the feed on.
				Durability: occupancy.DurabilityConfig{Dir: filepath.Join(logRoot, id)},
				// No map yet: it is installed below, once every node's
				// address is known.
				Cluster: &occupancy.ClusterConfig{Self: id},
			})
			if err != nil {
				return err
			}
			defer nd.stop()
			local = append(local, nd)
			boot.Nodes = append(boot.Nodes, occupancy.ClusterNode{ID: id, Addr: nd.url})
		}
		target = local[0].url
	}

	cl, err := newLoadClient(target, feeds)
	if err != nil {
		return err
	}
	if local != nil {
		if err := installMap(ctx, cl, target, boot, boot); err != nil {
			return err
		}
	}
	if err := cl.RefreshShardMap(ctx); err != nil {
		return err
	}
	m1 := cl.ShardMap()
	if m1.Empty() {
		return fmt.Errorf("cluster: target %s serves no shard map", target)
	}
	if drainID == "" {
		drainID = m1.Nodes[len(m1.Nodes)-1].ID
	}
	drained, ok := m1.NodeByID(drainID)
	if !ok {
		return fmt.Errorf("cluster: -drain-node %q is not in the shard map", drainID)
	}
	ref, err := activeSpan(ctx, cl)
	if err != nil {
		return err
	}
	fmt.Printf("loadgen: cluster of %d nodes (map epoch %d) behind %s; will drain %q mid-run; reference bundle %.12s…\n",
		len(m1.Nodes), m1.Epoch, target, drainID, ref.version)

	// Phase 1: every feed opens on its owner and streams its first half.
	start := time.Now()
	feedID := func(f int) string { return fmt.Sprintf("feed-%03d", f) }
	first := make([]*feedRun, feeds)
	err = eachFeed(feeds, func(f int) error {
		run, err := openFeed(ctx, cl, feedID(f), f, fx.recs)
		if err != nil {
			return err
		}
		first[f] = run
		return run.send(ctx, 0, half)
	})
	if err != nil {
		return err
	}

	// Phase 2: install the shrunken map everywhere, re-route the client,
	// drain the node out.
	m2 := m1.Without(drainID)
	fmt.Printf("loadgen: cluster: %d frames acknowledged; installing epoch %d map without %q and draining it\n",
		feeds*half, m2.Epoch, drainID)
	if err := installMap(ctx, cl, target, m1, m2); err != nil {
		return err
	}
	if err := cl.RefreshShardMap(ctx); err != nil {
		return err
	}
	if err := cl.At(drained.Addr).DrainNode(ctx); err != nil {
		return fmt.Errorf("cluster: draining %s: %w", drainID, err)
	}
	if err := noFeedsLeft(ctx, cl.At(drained.Addr), drainID); err != nil {
		return fmt.Errorf("cluster: after the drain: %w", err)
	}

	// Phase 3, timed: each moved feed's pre-drain stream is checked, then the
	// feed moves as its directory — the drained node's sealed log and snapshot
	// streamed into the new owner, which opens it as a restart would.
	restored0, replayed0, err := handoffCounts(m2)
	if err != nil {
		return err
	}
	handStart := time.Now()
	var moved, movedBytes atomic.Int64
	err = eachFeed(feeds, func(f int) error {
		id, run := feedID(f), first[f]
		if owner, _ := m1.Owner(id); owner.ID != drainID {
			return nil
		}
		moved.Add(1)
		// The drain tore the feed down on the old owner: its stream ended
		// after delivering exactly the decisions it made.
		if err := run.verify(run.wait(), 0, half, []span{ref}); err != nil {
			return fmt.Errorf("cluster: before the drain: %w", err)
		}
		info, n, err := cl.HandoffFeed(ctx, id, drained.Addr)
		if err != nil {
			return fmt.Errorf("cluster: handoff %s: %w", id, err)
		}
		// Zero-loss gate: the new owner holds a decision for every frame
		// acknowledged on the old one.
		if info.Decisions != int64(half) {
			return fmt.Errorf("cluster: %s: LOST FRAMES: %d acknowledged on %s, %d decided on the new owner", id, half, drainID, info.Decisions)
		}
		movedBytes.Add(n)
		first[f] = nil // reopened on the new owner below
		return nil
	})
	if err != nil {
		return err
	}
	handoff := time.Since(handStart)
	restored, replayed, err := handoffCounts(m2)
	if err != nil {
		return err
	}
	if restored-restored0 != float64(moved.Load()*int64(half)) || replayed != replayed0 {
		return fmt.Errorf("cluster: the new owners restored %v of the %d frames moved and replayed %v; want all restored, none replayed",
			restored-restored0, moved.Load()*int64(half), replayed-replayed0)
	}
	fmt.Printf("loadgen: cluster: hand-off of %d feeds (%d frames, %d bytes) from %q in %v, every frame restored from its snapshot, none replayed\n",
		moved.Load(), moved.Load()*int64(half), movedBytes.Load(), drainID, handoff.Round(time.Millisecond))

	// Phase 4: every feed streams its second half. A moved feed is verified
	// from its first decision on the new owner.
	err = eachFeed(feeds, func(f int) error {
		run, from := first[f], 0
		if run == nil {
			var err error
			if run, err = openFeed(ctx, cl, feedID(f), f, fx.recs); err != nil {
				return err
			}
			from = half
		}
		if err := run.send(ctx, half, perFeed); err != nil {
			return err
		}
		events, err := run.close(ctx)
		if err != nil {
			return err
		}
		return run.verify(events, from, perFeed-from, []span{ref})
	})
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	for i, nd := range local {
		if err := noFeedsLeft(ctx, cl.At(nd.url), boot.Nodes[i].ID); err != nil {
			return fmt.Errorf("cluster: after the run: %w", err)
		}
		if err := nd.stop(); err != nil {
			return fmt.Errorf("cluster: %s shutdown: %w", boot.Nodes[i].ID, err)
		}
	}
	fmt.Printf("loadgen: cluster %10.0f frames/sec   (%d nodes, %d feeds, %d frames, %v)\n",
		float64(feeds*perFeed)/elapsed.Seconds(), len(m1.Nodes), feeds, feeds*perFeed, elapsed.Round(time.Millisecond))
	if moved.Load() == 0 {
		return fmt.Errorf("cluster: no feed was placed on %q — the drain exercised nothing", drainID)
	}
	fmt.Println("loadgen: cluster verify: every decision bit-identical to the single-node reference; zero acknowledged frames lost across the drain")
	return nil
}

// handoffCounts sums, over the nodes of m, the logged frames their
// recoveries restored from a snapshot and those they replayed.
func handoffCounts(m occupancy.ShardMap) (restored, replayed float64, err error) {
	for _, nd := range m.Nodes {
		recovered, rs, err := recoveryCounts(nd.Addr)
		if err != nil {
			return 0, 0, fmt.Errorf("cluster: %s /metrics: %w", nd.ID, err)
		}
		restored, replayed = restored+rs, replayed+recovered-rs
	}
	return restored, replayed, nil
}

// installMap PUTs next on every member of the current map — and on target
// too when it is a thin router in front of the cluster rather than a member:
// a router is not in the map, and without the new topology it would keep
// redirecting to a drained node.
func installMap(ctx context.Context, cl *occupancy.Client, target string, current, next occupancy.ShardMap) error {
	router := true
	for _, nd := range current.Nodes {
		if err := cl.At(nd.Addr).UpdateShardMap(ctx, next); err != nil {
			return fmt.Errorf("cluster: installing map epoch %d on %s: %w", next.Epoch, nd.ID, err)
		}
		if strings.TrimSuffix(nd.Addr, "/") == strings.TrimSuffix(target, "/") {
			router = false
		}
	}
	if router {
		if err := cl.UpdateShardMap(ctx, next); err != nil {
			return fmt.Errorf("cluster: installing map epoch %d on router %s: %w", next.Epoch, target, err)
		}
	}
	return nil
}
