package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"time"

	"repro/bench/benchkit"
	"repro/internal/core"
	"repro/internal/dataset"
)

// train_offline is the only workload where nn.Fit, backward, AdamW and the
// f64 tensor.MatMul/MatMulATB/MatMulABT kernels do the work: repeated
// core.TrainDetector at the paper's configuration, two epochs over 12 h at
// 0.5 Hz (21 600 records). Every serving change predicts no movement here.
const (
	trainHours  = 12
	trainRate   = 0.5
	trainEpochs = 2
)

type trainWorkload struct {
	env *environment
	ds  *dataset.Dataset
	// sum is the weight checksum of the first repetition; training is
	// deterministic, so every repetition must reproduce it.
	sum     uint64
	haveSum bool
}

func (w *trainWorkload) setup(env *environment) error {
	w.env = env
	w.haveSum = false
	total := trainHours * time.Hour
	if env.smoke {
		total = time.Hour
	}
	ds, err := generateRooms(trainRate, env.seed, total)
	w.ds = ds
	return err
}

func (w *trainWorkload) teardown() { w.ds = nil }

// trainRep is one timed TrainDetector call.
type trainRep struct {
	wall, cpu time.Duration
	epochs    []time.Duration
	bad       int64
}

// weightSum hashes every parameter's bits in layer order.
func weightSum(det *core.Detector) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, p := range det.Net.Params() {
		for _, v := range p.Data {
			u := math.Float64bits(v)
			for i := range b {
				b[i] = byte(u >> (8 * i))
			}
			_, _ = h.Write(b[:])
		}
	}
	return h.Sum64()
}

func (w *trainWorkload) fit(rec *benchkit.Recorder, trace uint64) (*trainRep, error) {
	cfg := core.DefaultDetectorConfig()
	cfg.Train.Epochs = trainEpochs
	cfg.Seed = w.env.seed*7919 + 17
	rep := &trainRep{}
	var losses []float64
	// Every repetition, the warm-up one too, starts from a collected heap.
	// Otherwise the garbage of the set-up or of the repetition before is
	// collected at a point that differs from run to run, and peak_rss_mb
	// read 63-82 MB over ten runs. The collection is not timed.
	runtime.GC()
	cpu0 := benchkit.CPUTime()
	t0 := time.Now()
	last := t0
	// Epoch 0 is stamped from the TrainDetector call, so it carries the
	// feature-matrix build and the scaler fit as well.
	cfg.Train.OnEpoch = func(_ int, loss float64) {
		now := time.Now()
		rep.epochs = append(rep.epochs, now.Sub(last))
		last = now
		losses = append(losses, loss)
	}
	det, err := core.TrainDetector(w.ds, cfg)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	rep.wall, rep.cpu = t1.Sub(t0), benchkit.CPUTime()-cpu0
	if rec != nil {
		root := rec.Add("train.rep", trace, 0, t0, t1)
		at := t0
		for _, e := range rep.epochs {
			rec.Add("train.epoch", trace, root, at, at.Add(e))
			at = at.Add(e)
		}
	}

	// Outputs: a finite, decreasing loss and the same weights every time.
	if len(losses) != trainEpochs {
		rep.bad++
	}
	for i, l := range losses {
		if math.IsNaN(l) || math.IsInf(l, 0) || (i > 0 && l >= losses[i-1]) {
			rep.bad++
		}
	}
	sum := weightSum(det)
	if !w.haveSum {
		w.sum, w.haveSum = sum, true
	} else if sum != w.sum {
		rep.bad++
	}
	return rep, nil
}

func (w *trainWorkload) measure(window time.Duration, rec *benchkit.Recorder) (*result, error) {
	// The repetitions run on one processor. tensor.MatMul forks and joins
	// across GOMAXPROCS goroutines thousands of times a second, and on two
	// shared vCPUs what that join waits for is the host's scheduler: over
	// ten alternating pairs of runs the median epoch time spread (IQR over
	// median) 35 % on two processors and 8 % on one. Set-up and the layer
	// probes keep the run's GOMAXPROCS.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if _, err := w.fit(nil, 0); err != nil { // unmeasured warm-up repetition
		return nil, err
	}
	mem0 := readMem()
	var reps []*trainRep
	res := &result{layer: map[string]float64{}}
	for start := time.Now(); time.Since(start) < window || len(reps) < 3; {
		rep, err := w.fit(rec, uint64(len(reps)+1))
		if err != nil {
			return nil, err
		}
		res.failed += rep.bad
		reps = append(reps, rep)
	}
	perRep := int64(w.ds.Len()) * trainEpochs // sample-epochs
	res.ops = perRep * int64(len(reps))
	if rec != nil {
		goLayer(res.layer, mem0, readMem(), res.ops)
	}
	// A repetition is this workload's time slice: the tail is the median
	// over repetitions of each one's slowest epoch, as every other tail is
	// a median of slice tails. An upper quartile over all epochs is
	// decided by a burst that covers a quarter of the window.
	var wall, cpu, epochs, slowest []float64
	for _, r := range reps {
		wall = append(wall, r.wall.Seconds())
		cpu = append(cpu, float64(r.cpu)/float64(time.Microsecond))
		var worst float64
		for _, e := range r.epochs {
			ms := float64(e) / float64(time.Millisecond)
			epochs = append(epochs, ms)
			worst = math.Max(worst, ms)
		}
		slowest = append(slowest, worst)
	}
	res.throughput = float64(perRep) / benchkit.Median(wall)
	res.p50ms = benchkit.Median(epochs)
	res.tailms = benchkit.Median(slowest)
	res.cpuUS = benchkit.Median(cpu) / float64(perRep)
	res.primary = benchkit.Median(wall)
	res.notes = append(res.notes,
		fmt.Sprintf("train_offline: %d records x %d epochs at GOMAXPROCS=1, %d timed repetitions (s): %.3f", w.ds.Len(), trainEpochs, len(reps), wall),
		fmt.Sprintf("train_offline: epoch times (ms): %.0f", epochs),
		fmt.Sprintf("train_offline: an operation is one sample-epoch; latency_p50_ms is the median of %d epoch times, latency_tail_ms the median over the %d repetitions of each one's slowest epoch", len(epochs), len(reps)),
	)
	return res, nil
}
