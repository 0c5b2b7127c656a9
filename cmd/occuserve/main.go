// Command occuserve exposes a trained occupancy detector as the multi-tenant
// network service: many rooms ("feeds") stream CSI frames in over HTTP/JSON
// and read occupancy decisions back, all served by one shared inference
// engine.
//
// The API (the full reference is API.md; see also DESIGN.md §11 and §15):
//
//	PUT    /v1/feeds/{id}            register a feed
//	POST   /v1/feeds/{id}/frames     batch-ingest CSI frames: 202 = logged and
//	                                 decided (429 + Retry-After when rate-limited)
//	GET    /v1/feeds/{id}/occupancy  latest decision
//	GET    /v1/feeds/{id}/stream     NDJSON decision stream
//	GET    /v1/feeds/{id}/log        a drained feed's log directory, as an archive
//	PUT    /v1/feeds/{id}/log        install an archive and open the feed on it
//	DELETE /v1/feeds/{id}            close a feed
//	GET    /v1/cluster               shard map, node identity, model hash
//	PUT    /v1/cluster               install a newer shard map
//	POST   /v1/cluster/drain         drain this node and wait
//	GET    /v1/models                installed model versions + the active one
//	POST   /v1/models                install a candidate bundle (gated)
//	POST   /v1/models/activate       atomically hot-swap the active version
//	GET    /v1/models/{version}      fetch an installed bundle by sha256
//	PUT    /v1/feeds/{id}/model      pin a feed to a version (A/B); DELETE unpins
//	GET    /healthz, /readyz         liveness / readiness
//	GET    /metrics, /debug/pprof/   observability
//
// SIGINT/SIGTERM drains gracefully: /readyz flips to 503 and new work is
// rejected first, every feed closes behind the batch it has in flight, then
// the listener closes.
//
// Usage:
//
//	occuserve [-addr :8080] [-model detector.bin] [-epochs n]
//	          [-max-feeds n] [-rate-limit hz] [-idle-timeout d]
//	          [-stream-buffer n] [-precision f64|f32|int8]
//	          [-log-dir dir] [-fsync always|interval|off] [-fsync-interval d]
//	          [-drain-timeout d] [-seed n]
//	          [-drift-baseline n] [-drift-window n] [-drift-bins n]
//	          [-drift-psi x] [-drift-ks x] [-drift-consecutive n]
//	          [-cluster-self id] [-cluster-nodes id=url,...] [-cluster-vnodes n]
//	          [-model-from url]
//
// Cluster mode: -cluster-self names this node in the shard map;
// -cluster-nodes seeds the initial membership (epoch 1), or is left empty to
// have an orchestrator install the map via PUT /v1/cluster. A node whose
// -cluster-self is absent from the map owns no feeds: it is the thin router
// that answers every feed request with a 307 to the owner. -model-from
// fetches the detector bundle from a running peer
// instead of loading or training one, so every node serves byte-identical
// weights (verify via the model_sha256 field of /v1/cluster).
//
// -precision selects the inference arithmetic: f64 (default) is
// bit-identical to the offline reference path; f32 halves the hot-path
// precision for throughput; int8 serves quantised weights. Reduced
// precisions stay deterministic per sample but diverge boundedly from f64
// (TestDivergenceGoldenBounds pins the bounds; DESIGN.md §12).
//
// -log-dir enables durable ingest: every accepted frame is logged before it
// is acknowledged, and a restart replays each feed's log to the exact
// pre-crash decision state (prove it with `loadgen -crash`; DESIGN.md §13).
// -fsync bounds the power-loss window; a plain process kill loses nothing
// under any policy.
//
// Setting any -drift-* flag (a threshold alone included; the others take
// their defaults) attaches a deterministic per-feed drift detector to the
// primary decision-score stream: PSI and KS over tumbling windows against a
// baseline captured at feed start, exported on /metrics (server_drift_*)
// and the feed listing. Candidate bundles installed via
// POST /v1/models pass a divergence gate before they become activatable;
// `loadgen -swap` proves a mid-run activation loses nothing (DESIGN.md §16).
//
// Without -model, a C+E detector (plus a CSI-only fallback for feeds whose
// env sensors die) is trained on a synthetic day at startup.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/pkg/occupancy"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		model     = flag.String("model", "", "detector bundle (empty: train one on the fly)")
		epochs    = flag.Int("epochs", 5, "training epochs for the on-the-fly detector (ignored with -model)")
		precision = flag.String("precision", "f64", "inference arithmetic: f64 (bit-exact reference), f32 (fast) or int8 (small)")
		maxFeeds  = flag.Int("max-feeds", 0, "concurrent feed cap (0 = default 1024)")
		rate      = flag.Float64("rate-limit", 0, "per-feed ingest rate limit in frames/sec (0 = unlimited)")
		idle      = flag.Duration("idle-timeout", 0, "evict feeds idle this long (0 = default 2m, negative = never)")
		streamBuf = flag.Int("stream-buffer", 0, "per-subscriber decision stream buffer (0 = default 256)")
		drain     = flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown budget")
		seed      = flag.Int64("seed", 42, "training seed for the on-the-fly detector (ignored with -model)")

		driftBaseline    = flag.Int("drift-baseline", 0, "drift: baseline sample count (0 = default 512; any -drift-* flag enables detection)")
		driftWindow      = flag.Int("drift-window", 0, "drift: tumbling evaluation window size (0 = default 256)")
		driftBins        = flag.Int("drift-bins", 0, "drift: PSI histogram bins (0 = default 16)")
		driftPSI         = flag.Float64("drift-psi", 0, "drift: PSI trigger threshold (0 = default 0.25)")
		driftKS          = flag.Float64("drift-ks", 0, "drift: KS trigger threshold (0 = default 0.2)")
		driftConsecutive = flag.Int("drift-consecutive", 0, "drift: consecutive breaching windows to latch a trigger (0 = default 2)")

		logDir        = flag.String("log-dir", "", "durable frame log root (empty: durability off)")
		fsync         = flag.String("fsync", "interval", "frame log sync policy: always, interval or off")
		fsyncInterval = flag.Duration("fsync-interval", 0, "max time between syncs under -fsync interval (0 = default 100ms)")

		clusterSelf   = flag.String("cluster-self", "", "this node's ID in the shard map (empty: standalone)")
		clusterNodes  = flag.String("cluster-nodes", "", "initial shard membership as id=url[,id=url...] (empty: wait for an orchestrator to install a map)")
		clusterVNodes = flag.Int("cluster-vnodes", 0, "virtual nodes per member on the hash ring (0 = default 64)")
		modelFrom     = flag.String("model-from", "", "fetch the detector bundle from this running peer instead of -model/training")
	)
	flag.Parse()
	if *epochs < 1 {
		fail(fmt.Errorf("-epochs must be >= 1 (got %d)", *epochs))
	}
	// Fail before training if OCCU_KERNEL asked for a kernel this CPU
	// cannot run — silently serving on generic would defeat the override.
	fail(occupancy.KernelError())
	fmt.Printf("occuserve: compute kernel %s\n", occupancy.KernelDescription())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var primary, fallback *occupancy.Detector
	var err error
	switch {
	case *modelFrom != "":
		cl, cerr := occupancy.NewClient(occupancy.ClientConfig{BaseURL: *modelFrom})
		fail(cerr)
		blob, ferr := cl.FetchModel(ctx)
		fail(ferr)
		primary, err = occupancy.LoadBytes(blob)
		fail(err)
		fmt.Printf("occuserve: fetched detector bundle from %s (%s features, %d bytes)\n",
			*modelFrom, primary.Features(), len(blob))
	case *model != "":
		primary, err = occupancy.Load(*model)
		fail(err)
		fmt.Printf("occuserve: loaded %s (%s features)\n", *model, primary.Features())
	default:
		fmt.Println("occuserve: no -model; training C+E and CSI-only detectors on a synthetic day")
		tcfg := occupancy.TrainConfig{Features: occupancy.FeaturesCSIEnv, Epochs: *epochs, Seed: *seed}
		primary, err = occupancy.Train(tcfg)
		fail(err)
		tcfg.Features = occupancy.FeaturesCSI
		fallback, err = occupancy.Train(tcfg)
		fail(err)
	}

	var clusterCfg *occupancy.ClusterConfig
	if *clusterSelf != "" {
		m, merr := parseClusterNodes(*clusterNodes, *clusterVNodes)
		fail(merr)
		clusterCfg = &occupancy.ClusterConfig{Self: *clusterSelf, Map: m}
	} else if *clusterNodes != "" {
		fail(fmt.Errorf("-cluster-nodes needs -cluster-self"))
	}

	driftCfg := occupancy.DriftConfig{
		Baseline:    *driftBaseline,
		Window:      *driftWindow,
		Bins:        *driftBins,
		PSI:         *driftPSI,
		KS:          *driftKS,
		Consecutive: *driftConsecutive,
	}
	srv, err := occupancy.NewServer(primary, occupancy.ServeConfig{
		Addr:         *addr,
		Fallback:     fallback,
		Precision:    *precision,
		MaxFeeds:     *maxFeeds,
		RatePerSec:   *rate,
		IdleTimeout:  *idle,
		StreamBuffer: *streamBuf,
		DrainTimeout: *drain,
		Durability: occupancy.DurabilityConfig{
			Dir:      *logDir,
			Fsync:    *fsync,
			Interval: *fsyncInterval,
		},
		Cluster: clusterCfg,
		Drift:   driftCfg,
	})
	fail(err)
	if *logDir != "" {
		fmt.Printf("occuserve: durable frame log at %s (fsync=%s)\n", *logDir, *fsync)
	}
	if driftCfg.Enabled() {
		fmt.Println("occuserve: per-feed drift detection on (server_drift_* metrics)")
	}
	if clusterCfg != nil {
		fmt.Printf("occuserve: cluster node %q (map epoch %d, %d members)\n",
			clusterCfg.Self, clusterCfg.Map.Epoch, len(clusterCfg.Map.Nodes))
	}
	if *precision != occupancy.PrecisionF64 {
		fmt.Printf("occuserve: serving at %s precision (bounded divergence vs the f64 reference, DESIGN.md §12)\n", *precision)
	}
	fmt.Printf("occuserve: serving on %s (metrics at %s/metrics)\n", srv.URL(), srv.URL())
	if err := srv.Run(ctx); err != nil {
		fail(err)
	}
	fmt.Println("occuserve: drained cleanly")
}

// parseClusterNodes parses "id=url[,id=url...]" into an epoch-1 shard map;
// an empty spec yields the zero map ("wait for PUT /v1/cluster").
func parseClusterNodes(spec string, vnodes int) (occupancy.ShardMap, error) {
	m := occupancy.ShardMap{VNodes: vnodes}
	if spec == "" {
		return m, m.Validate()
	}
	m.Epoch = 1
	for _, part := range strings.Split(spec, ",") {
		id, addr, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return m, fmt.Errorf("-cluster-nodes entry %q: want id=url", part)
		}
		m.Nodes = append(m.Nodes, occupancy.ClusterNode{ID: id, Addr: addr})
	}
	return m, m.Validate()
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "occuserve:", err)
		os.Exit(1)
	}
}
