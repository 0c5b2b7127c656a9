package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/bench/benchkit"
	"repro/pkg/occupancy"
)

// bulk_backfill is gateways flushing buffered history (and a drain
// hand-off re-ingesting a feed): nproc closed-loop senders, each owning an
// equal share of 16 feeds round-robin, 256-frame Client.Ingest batches.
// Per-frame costs dominate — JSON encode/decode, framelog.AppendBatch,
// stream.Process and the batched f32 kernel at batches of up to 16.
const (
	bulkFeeds  = 16
	bulkBatch  = 256
	bulkSlices = 10
	// bulkTailQ: p95 is the highest percentile with at least ten round
	// trips beyond it in a tenth of the window.
	bulkTailQ = 0.95
	// bulkQueueDepth lets a feed hold four batches; bulkStreamBuffer keeps
	// the two verification subscribers from dropping events when a full
	// queue is decided in one burst.
	bulkQueueDepth   = 1024
	bulkStreamBuffer = 4096
	// The log keeps two 8 MiB segments per feed beside the active one. The
	// workload writes ~30 MB/s; with unlimited retention the tmpfs log passes
	// a gigabyte after 20 s and every slice from there on ran 15-50 % slower
	// in ten runs out of ten (fresh guest pages cost the hypervisor a fault
	// each), which measures the VM and not the repo. Capped, the footprint
	// stays at 16 x 24 MiB and rotation and retention run in the window.
	bulkSegmentBytes = 8 << 20
	bulkMaxSegments  = 2
)

// bulkProbes are the feeds whose every decision is streamed and verified.
var bulkProbes = [2]int{0, bulkFeeds - 1}

type bulkWorkload struct {
	served
	phase int
}

func (w *bulkWorkload) setup(env *environment) error {
	return w.served.setup(env, func(c *occupancy.ServeConfig) {
		c.QueueDepth = bulkQueueDepth
		c.StreamBuffer = bulkStreamBuffer
		c.Durability.SegmentMaxBytes = bulkSegmentBytes
		c.Durability.MaxSegments = bulkMaxSegments
	})
}

// bulkSample is one Ingest round trip.
type bulkSample struct {
	sent time.Time
	rtt  time.Duration
}

func (w *bulkWorkload) measure(window time.Duration, rec *benchkit.Recorder) (*result, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w.phase++
	cl := w.sv.cl
	ids := make([]string, bulkFeeds)
	for f := range ids {
		ids[f] = fmt.Sprintf("gw-%d-%02d", w.phase, f)
		if _, err := cl.RegisterFeed(ctx, ids[f]); err != nil {
			return nil, fmt.Errorf("register %s: %w", ids[f], err)
		}
	}

	// Verification subscribers on the probe feeds.
	probeGot := make([][]occupancy.Decision, len(bulkProbes))
	var readers sync.WaitGroup
	for i, f := range bulkProbes {
		st, err := cl.StreamDecisions(ctx, ids[f], true)
		if err != nil {
			return nil, fmt.Errorf("stream %s: %w", ids[f], err)
		}
		readers.Add(1)
		go func(i int, st *occupancy.DecisionStream) {
			defer readers.Done()
			defer st.Close()
			for {
				d, err := st.Next()
				if err != nil {
					return // the feed closed and the stream ended
				}
				probeGot[i] = append(probeGot[i], d)
			}
		}(i, st)
	}

	start := time.Now()
	measureFrom := start.Add(w.env.warmup)
	deadline := measureFrom.Add(window)

	// Closed-loop senders, never more in flight than cores.
	senders := w.env.gomaxprocs
	if senders > bulkFeeds {
		senders = bulkFeeds
	}
	sent := make([]int, bulkFeeds) // frames accepted per feed; each entry has one writer
	samples := make([][]bulkSample, senders)
	var rejected atomic.Int64
	var sg sync.WaitGroup
	for s := 0; s < senders; s++ {
		sg.Add(1)
		go func(s int) {
			defer sg.Done()
			batch := make([]occupancy.Frame, bulkBatch)
			for round := 0; ; round++ {
				for f := s; f < bulkFeeds; f += senders {
					t0 := time.Now()
					if !t0.Before(deadline) {
						return
					}
					for j := range batch {
						batch[j] = w.fx.wireFrame(f, sent[f]+j)
					}
					n, err := cl.Ingest(ctx, ids[f], batch)
					t1 := time.Now()
					sent[f] += n
					if err != nil {
						rejected.Add(int64(bulkBatch - n))
						continue
					}
					samples[s] = append(samples[s], bulkSample{sent: t0, rtt: t1.Sub(t0)})
					rec.Add("client.ingest_b256", uint64(w.phase)<<48|uint64(f)<<32|uint64(round), 0, t0, t1)
				}
			}
		}(s)
	}

	// Steady-state rate: the server's own decision counter read at slice
	// boundaries. The first boundary is the end of warm-up.
	type tick struct {
		at        time.Time
		decisions float64
		cpu       time.Duration
	}
	ticks := make([]tick, 0, bulkSlices+1)
	var mem0 memSnap
	var obs0 map[string]float64
	var retries0 int64
	for i := 0; i <= bulkSlices; i++ {
		time.Sleep(time.Until(measureFrom.Add(window * time.Duration(i) / bulkSlices)))
		now := time.Now()
		m := w.sv.metrics()
		ticks = append(ticks, tick{at: now, decisions: m["server_decisions_total"], cpu: benchkit.CPUTime()})
		if i == 0 && rec != nil {
			mem0, obs0, retries0 = readMem(), m, w.sv.counter.pressure.Load()
		}
	}
	measured := int64(ticks[bulkSlices].decisions - ticks[0].decisions)
	layer := map[string]float64{}
	if rec != nil {
		serverLayer(layer, benchkit.PromDelta(w.sv.metrics(), obs0), w.sv.counter.pressure.Load()-retries0)
		goLayer(layer, mem0, readMem(), measured)
	}
	sg.Wait()

	// Outside the timed window: every accepted frame must have been
	// decided, in order, on every feed.
	res := &result{layer: layer, ops: measured, failed: rejected.Load()}
	for f, id := range ids {
		if sent[f] == 0 {
			continue
		}
		want := int64(sent[f] - 1)
		var got occupancy.Decision
		waitUntil := time.Now().Add(20 * time.Second)
		for {
			d, ok, err := cl.Occupancy(ctx, id)
			if err != nil {
				return nil, fmt.Errorf("occupancy %s: %w", id, err)
			}
			if ok {
				got = d
			}
			if (ok && d.Seq >= want) || time.Now().After(waitUntil) {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		if got.Seq != want {
			res.failed += want - got.Seq
		}
	}
	// Closing the probe feeds ends their streams once the queues drained.
	for _, f := range bulkProbes {
		_ = cl.CloseFeed(ctx, ids[f])
	}
	readers.Wait()
	bad, err := w.ref.mismatchesAll(bulkProbes[:], probeGot, []int{sent[bulkProbes[0]], sent[bulkProbes[1]]})
	if err != nil {
		return nil, err
	}
	res.failed += bad
	for f, id := range ids {
		if f != bulkProbes[0] && f != bulkProbes[1] {
			_ = cl.CloseFeed(ctx, id)
		}
	}

	var rates []float64
	for i := 1; i < len(ticks); i++ {
		rates = append(rates, (ticks[i].decisions-ticks[i-1].decisions)/ticks[i].at.Sub(ticks[i-1].at).Seconds())
	}
	var rtts []benchkit.Sample
	var vals []float64
	for _, ss := range samples {
		for _, s := range ss {
			at := s.sent.Sub(measureFrom)
			if at < 0 || at >= window {
				continue
			}
			ms := float64(s.rtt) / float64(time.Millisecond)
			rtts = append(rtts, benchkit.Sample{At: at, V: ms})
			vals = append(vals, ms)
		}
	}
	if measured < 1 || len(vals) == 0 {
		return nil, fmt.Errorf("bulk_backfill: nothing was decided in the window")
	}
	var counts []int
	res.throughput = benchkit.Median(rates)
	res.p50ms = benchkit.Median(vals)
	res.tailms, counts = benchkit.SliceQuantile(rtts, window, bulkSlices, bulkTailQ)
	res.cpuUS = float64(ticks[bulkSlices].cpu-ticks[0].cpu) / float64(time.Microsecond) / float64(measured)
	res.primary = 1 / res.throughput
	res.notes = append(res.notes,
		fmt.Sprintf("bulk_backfill: %d closed-loop senders over %d feeds, %d-frame batches; %d frames decided in the window", senders, bulkFeeds, bulkBatch, measured),
		fmt.Sprintf("bulk_backfill: throughput = median of %d slice rates; p50 over %d round trips; tail = median over slices of the slice p%g, round trips per slice %v",
			len(rates), len(vals), bulkTailQ*100, counts),
		fmt.Sprintf("bulk_backfill: slice rates %.0f", rates),
		fmt.Sprintf("bulk_backfill: %d and %d decisions of the probe feeds verified against the local replay", len(probeGot[0]), len(probeGot[1])),
	)
	return res, nil
}
