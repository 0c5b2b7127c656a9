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

// live_20hz is the paper's deployment shape: 16 rooms, each due one
// single-frame POST every 50 ms, room offsets staggered by 3.125 ms. One
// sender goroutine on one keep-alive connection drives an open loop; every
// room holds a StreamDecisions(all=true) subscription. Each frame travels
// alone, so the cost is per-request overhead, goroutine hops and the
// engine's singleton straggler wait — JSON volume and the kernel hardly
// matter.
const (
	liveRooms  = 16
	livePeriod = 50 * time.Millisecond
	// liveTailQ is the tail percentile taken per time slice. A 20 s window
	// cut in ten gives 640 samples a slice, so p98 would still have ten
	// samples beyond it; but over ten runs the slice-median p98 spread by
	// 9.6 % and p99 by 17 %, p95 (32 samples beyond) by 7 %, and a tail that
	// cannot tell a regression from the weather guards nothing.
	liveTailQ  = 0.95
	liveSlices = 10
)

type liveWorkload struct {
	served
	phase int
}

func (w *liveWorkload) setup(env *environment) error { return w.served.setup(env, nil) }

// liveRoom is one room's receive side: the decisions read from its stream
// and when each line was read.
type liveRoom struct {
	id     string
	st     *occupancy.DecisionStream
	got    []occupancy.Decision
	recv   []time.Time
	spans  []atomic.Int64 // live.frame span per frame, set by the sender
	broken int            // decisions that arrived out of sequence
}

func (w *liveWorkload) measure(window time.Duration, rec *benchkit.Recorder) (*result, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w.phase++
	warmFrames := int(w.env.warmup / livePeriod)
	frames := warmFrames + int(window/livePeriod)
	cl := w.sv.cl

	rooms := make([]*liveRoom, liveRooms)
	for r := range rooms {
		room := &liveRoom{
			id:    fmt.Sprintf("room-%d-%02d", w.phase, r),
			got:   make([]occupancy.Decision, 0, frames),
			recv:  make([]time.Time, 0, frames),
			spans: make([]atomic.Int64, frames),
		}
		if _, err := cl.RegisterFeed(ctx, room.id); err != nil {
			return nil, fmt.Errorf("register %s: %w", room.id, err)
		}
		// Subscribe before the first frame so the stream sees every decision.
		st, err := cl.StreamDecisions(ctx, room.id, true)
		if err != nil {
			return nil, fmt.Errorf("stream %s: %w", room.id, err)
		}
		room.st = st
		rooms[r] = room
	}

	var readers sync.WaitGroup
	for _, room := range rooms {
		readers.Add(1)
		go func(room *liveRoom) {
			defer readers.Done()
			defer room.st.Close()
			for len(room.got) < frames {
				d, err := room.st.Next()
				if err != nil {
					return
				}
				now := time.Now()
				if d.Seq != int64(len(room.got)) {
					room.broken++
				}
				if d.Seq >= 0 && d.Seq < int64(frames) {
					rec.End(int(room.spans[d.Seq].Load()), now)
				}
				room.got = append(room.got, d)
				room.recv = append(room.recv, now)
			}
		}(room)
	}

	// The open loop: tick i belongs to room i%16, frame i/16.
	pacer := &benchkit.Pacer{
		Clock:  benchkit.SystemClock{},
		Start:  time.Now().Add(20 * time.Millisecond),
		Period: livePeriod / liveRooms,
	}
	warmTicks := warmFrames * liveRooms
	// Process CPU is read at every slice boundary of the measured window.
	measuredTicks := (frames - warmFrames) * liveRooms
	cpuAt := make([]time.Duration, 0, liveSlices+1)
	var (
		mem0         memSnap
		obs0         map[string]float64
		retries0     int64
		sendFailures int64
	)
	one := make([]occupancy.Frame, 1)
	for i := 0; i < frames*liveRooms; i++ {
		if i == warmTicks && rec != nil {
			mem0, obs0, retries0 = readMem(), w.sv.metrics(), w.sv.counter.pressure.Load()
		}
		if m := i - warmTicks; m >= 0 && m == len(cpuAt)*measuredTicks/liveSlices {
			cpuAt = append(cpuAt, benchkit.CPUTime())
		}
		r, k := i%liveRooms, i/liveRooms
		due := pacer.Wait(i)
		sent := time.Now()
		one[0] = w.fx.wireFrame(r, k)
		// The frame's span opens at its due time and is closed by the
		// reader that receives its decision, so it must exist before the
		// request leaves.
		trace := uint64(w.phase)<<48 | uint64(r)<<32 | uint64(k)
		id := rec.Begin("live.frame", trace, 0, due)
		rooms[r].spans[k].Store(int64(id))
		n, err := cl.Ingest(ctx, rooms[r].id, one)
		if err != nil || n != 1 {
			sendFailures++
			continue
		}
		if rec != nil {
			rec.Add("gen.late", trace, id, due, sent)
			rec.Add("client.ingest", trace, id, sent, time.Now())
		}
	}

	// Every frame is sent; give the last decisions a moment to arrive.
	done := make(chan struct{})
	go func() { readers.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
	}
	cpuAt = append(cpuAt, benchkit.CPUTime())
	layer := map[string]float64{}
	if rec != nil {
		serverLayer(layer, benchkit.PromDelta(w.sv.metrics(), obs0), w.sv.counter.pressure.Load()-retries0)
		goLayer(layer, mem0, readMem(), int64(frames-warmFrames)*liveRooms)
	}
	for _, room := range rooms {
		_ = cl.CloseFeed(ctx, room.id)
	}
	cancel()
	<-done

	res := &result{layer: layer}
	res.ops = int64(frames-warmFrames) * liveRooms
	res.failed = sendFailures
	var lat []benchkit.Sample
	var first, last time.Time
	for r, room := range rooms {
		res.failed += int64(room.broken)
		for k := warmFrames; k < frames; k++ {
			if k >= len(room.recv) {
				res.failed++ // the frame never got its decision
				continue
			}
			due := pacer.Due(k*liveRooms + r)
			at := room.recv[k]
			lat = append(lat, benchkit.Sample{
				At: due.Sub(pacer.Due(warmTicks)),
				V:  float64(at.Sub(due)) / float64(time.Millisecond),
			})
			if first.IsZero() || at.Before(first) {
				first = at
			}
			if at.After(last) {
				last = at
			}
		}
	}
	if len(lat) < 2 {
		return nil, fmt.Errorf("live_20hz: only %d decisions arrived", len(lat))
	}

	// Correctness, outside the timed window: every streamed decision
	// against the local replay, rooms in parallel.
	// Missing decisions are already counted above; compare what came.
	feeds, got, want := make([]int, liveRooms), make([][]occupancy.Decision, liveRooms), make([]int, liveRooms)
	for r, room := range rooms {
		feeds[r], got[r], want[r] = r, room.got, len(room.got)
	}
	bad, err := w.ref.mismatchesAll(feeds, got, want)
	if err != nil {
		return nil, err
	}
	res.failed += bad

	vals := make([]float64, len(lat))
	for i, s := range lat {
		vals[i] = s.V
	}
	var counts []int
	res.p50ms = benchkit.Median(vals)
	res.tailms, counts = benchkit.SliceQuantile(lat, window, liveSlices, liveTailQ)
	res.throughput = float64(len(lat)-1) / last.Sub(first).Seconds()
	res.cpuUS = float64(cpuAt[liveSlices]-cpuAt[0]) / float64(time.Microsecond) / float64(len(lat))
	res.primary = res.p50ms
	late := pacer.Lateness(warmTicks)
	layer["gen.late_p99_ms"] = benchkit.Quantile(late, 0.99)
	layer["gen.late_max_ms"] = benchkit.Quantile(late, 1)
	res.notes = append(res.notes,
		fmt.Sprintf("live_20hz: %d rooms x %d measured frames, open loop, one sender; p50 over %d samples", liveRooms, frames-warmFrames, len(lat)),
		fmt.Sprintf("live_20hz: tail = median over %d slices of the slice p%g; samples per slice %v", liveSlices, liveTailQ*100, counts),
		fmt.Sprintf("live_20hz: generator lateness p99 %.3f ms, max %.3f ms", layer["gen.late_p99_ms"], layer["gen.late_max_ms"]),
	)
	return res, nil
}
