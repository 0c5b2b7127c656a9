package nn

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/obs"
	"repro/internal/tensor"
)

// TrainConfig controls Fit. The defaults mirror the paper's setup: 10
// epochs, learning rate 5e-3, AdamW with weight decay, mini-batches.
type TrainConfig struct {
	Epochs      int
	BatchSize   int
	LR          float64
	WeightDecay float64
	Seed        int64 // the per-epoch shuffle's seed
	// Checkpoint, when set, is the file Fit resumes from and saves to after
	// every epoch.
	Checkpoint string
	// OnEpoch, when non-nil, receives (epoch, meanLoss) after each epoch.
	OnEpoch func(epoch int, loss float64)
	// Observer receives per-epoch training metrics (train_* series: epoch
	// counter, last epoch loss, epoch duration). Nil disables observability.
	// The clock is only read when an Observer is attached, and metrics never
	// feed back into the optimisation — the weight trajectory is bit-
	// identical with or without one.
	Observer obs.Observer
}

// Validate reports whether the configuration is trainable. Fit defaults
// zero sizes, so Validate only rejects the contradictions defaulting cannot
// repair: negative counts, and rates that are negative, NaN or infinite (a
// NaN rate trains without complaint into a model of NaN weights).
func (c TrainConfig) Validate() error {
	if c.Epochs < 0 || c.BatchSize < 0 {
		return fmt.Errorf("nn: negative training sizes (epochs %d, batch %d)", c.Epochs, c.BatchSize)
	}
	for _, r := range [...]struct {
		name string
		v    float64
	}{{"LR", c.LR}, {"WeightDecay", c.WeightDecay}} {
		if !(r.v >= 0) || math.IsInf(r.v, 1) {
			return fmt.Errorf("nn: training rate %s = %v, want finite and non-negative", r.name, r.v)
		}
	}
	return nil
}

// DefaultTrainConfig returns the paper's training hyper-parameters (§V-B:
// "trained for 10 epochs with a learning rate of 5e-3", AdamW decay [23]).
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{
		Epochs:      10,
		BatchSize:   256,
		LR:          5e-3,
		WeightDecay: 1e-4,
		Seed:        1,
	}
}

// clipNorm is the global gradient-norm bound of every Fit step.
const clipNorm = 5

// Fit trains the network on (x, y) minimising loss with a fresh AdamW. y
// must have one row per x row. Returns the per-epoch mean training loss of
// the epochs it ran.
//
// With cfg.Checkpoint set, Fit first resumes from that file when it exists
// — a corrupt file, or one another run wrote (runFingerprint), is an error
// naming it, never a silent restart — and replays the shuffle draws of the
// epochs it covers, so the resumed run walks the exact batch sequence, and
// reaches the exact weights, of an uninterrupted one. It saves the file
// atomically after every epoch; a failed save stops training at its epoch
// and is returned with the losses so far.
func (n *Network) Fit(x, y *tensor.Matrix, loss Loss, cfg TrainConfig) ([]float64, error) {
	if x.Rows != y.Rows {
		panic(fmt.Sprintf("nn: Fit rows mismatch x=%d y=%d", x.Rows, y.Rows))
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 1
	}
	if x.Rows == 0 {
		return nil, nil
	}
	if cfg.BatchSize <= 0 || cfg.BatchSize > x.Rows {
		cfg.BatchSize = x.Rows
	}
	opt := NewAdamW(cfg.LR, cfg.WeightDecay)
	start := 0
	var run uint64
	if cfg.Checkpoint != "" {
		run = runFingerprint(n, x, y, loss, cfg)
		var err error
		if start, err = resume(cfg.Checkpoint, n, opt, run); err != nil || start >= cfg.Epochs {
			return nil, err
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	idx := make([]int, x.Rows)
	for i := range idx {
		idx[i] = i
	}
	shuffle := func() { rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] }) }
	step := newTrainStep(n, loss, opt, clipNorm)

	// Persistent batch buffers. The tail batch (when x.Rows is not a
	// multiple of BatchSize) reuses the same backing arrays through
	// shorter views, so an epoch's gather loop allocates nothing.
	bx := tensor.NewMatrix(cfg.BatchSize, x.Cols)
	by := tensor.NewMatrix(cfg.BatchSize, y.Cols)
	var tx, ty *tensor.Matrix
	if tail := x.Rows % cfg.BatchSize; tail != 0 {
		tx = tensor.FromSlice(tail, x.Cols, bx.Data[:tail*x.Cols])
		ty = tensor.FromSlice(tail, y.Cols, by.Data[:tail*y.Cols])
	}

	for e := 0; e < start; e++ {
		shuffle()
	}

	// Training metrics: resolved once per Fit, updated once per epoch —
	// far off the hot path. mEpochs counts epochs across every Fit sharing
	// the Observer; mLoss tracks the most recent epoch's mean loss.
	var mEpochs *obs.Counter
	var mLoss *obs.Gauge
	var mDur *obs.Histogram
	if cfg.Observer != nil {
		mEpochs = cfg.Observer.Counter("train_epochs_total", "training epochs completed")
		mLoss = cfg.Observer.Gauge("train_epoch_loss", "mean training loss of the last completed epoch")
		mDur = cfg.Observer.Histogram("train_epoch_seconds", "wall-clock duration per training epoch", nil)
	}

	history := make([]float64, 0, cfg.Epochs-start)
	for epoch := start; epoch < cfg.Epochs; epoch++ {
		var t0 time.Time
		if mDur != nil {
			t0 = time.Now()
		}
		shuffle()
		var epochLoss float64
		batches := 0
		for start := 0; start < len(idx); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(idx) {
				end = len(idx)
			}
			nb := end - start
			// Gather the batch. Reuse buffers; the tail batch uses the
			// preallocated shorter views of the same backing arrays.
			xb, yb := bx, by
			if nb != cfg.BatchSize {
				xb, yb = tx, ty
			}
			for bi, si := range idx[start:end] {
				copy(xb.Row(bi), x.Row(si))
				copy(yb.Row(bi), y.Row(si))
			}

			epochLoss += step.run(xb, yb)
			batches++
		}
		mean := epochLoss / float64(batches)
		history = append(history, mean)
		mEpochs.Inc()
		mLoss.Set(mean)
		if mDur != nil {
			mDur.Observe(time.Since(t0).Seconds())
		}
		if cfg.OnEpoch != nil {
			cfg.OnEpoch(epoch, mean)
		}
		if cfg.Checkpoint != "" {
			if err := saveCheckpoint(cfg.Checkpoint, n, opt, epoch+1, run); err != nil {
				return history, err
			}
		}
	}
	return history, nil
}

// FitOnline performs a single incremental update on one mini-batch — the
// "online training" deployment mode the paper argues for in §V-B (an MLP
// can be trained continuously on new data without revisiting the dataset).
// The same optimiser must be passed across calls to retain its state. The
// update is Fit's per-batch step, so it costs what a batch of Fit costs.
func (n *Network) FitOnline(xb, yb *tensor.Matrix, loss Loss, opt *AdamW, clipNorm float64) float64 {
	return newTrainStep(n, loss, opt, clipNorm).run(xb, yb)
}

// trainStep is one optimiser step on one mini-batch, shared by Fit's batch
// loop and FitOnline: forward, loss, backward down to the parameter
// gradients (not the first layer's input gradient), clipping, update.
type trainStep struct {
	net           *Network
	loss          Loss
	opt           *AdamW
	clipNorm      float64 // 0 disables clipping
	params, grads []*tensor.Matrix
	gradBuf       *tensor.Matrix // ∂loss/∂pred, reused across batches
}

func newTrainStep(n *Network, loss Loss, opt *AdamW, clipNorm float64) *trainStep {
	return &trainStep{net: n, loss: loss, opt: opt, clipNorm: clipNorm, params: n.Params(), grads: n.Grads()}
}

// run trains on (xb, yb) and returns the batch's loss before the update.
func (s *trainStep) run(xb, yb *tensor.Matrix) float64 {
	pred := s.net.Forward(xb, true)
	l := s.loss.Value(pred, yb)
	s.gradBuf = tensor.EnsureShape(s.gradBuf, pred.Rows, pred.Cols)
	s.net.backwardParams(s.loss.Grad(s.gradBuf, pred, yb))
	if s.clipNorm > 0 {
		ClipGradNorm(s.grads, s.clipNorm)
	}
	s.opt.Step(s.params, s.grads)
	return l
}
