package nn

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"math"
	"os"

	"repro/internal/atomicfile"
	"repro/internal/tensor"
)

// Training checkpoint format — distinct from the float32 deployment format
// in serialize.go because resume must be *bit-exact*: parameters and AdamW
// moments are stored as float64, and the whole payload is CRC-guarded so a
// torn write or a flipped bit is rejected at load instead of silently
// poisoning the resumed run. The envelope is atomicfile's, the feed
// snapshots' too: magic 0x4F434B50 ("OCKP"), version 3, length, CRC32-C.
// Versions 1 and 2 had headers of their own and are refused.
//
//	payload:
//	  run      uint64  runFingerprint of the run that wrote it
//	  epoch    uint32  epochs fully completed
//	  nParams  uint32
//	  per param: len uint32, float64[len]
//	  optKind  uint8   1 = AdamW (0, a stateless optimiser, is refused)
//	  AdamW:   t uint64, then m and v float64 arrays matching the params
const (
	ckptMagic   = 0x4F434B50
	ckptVersion = 3

	ckptOptAdamW = 1
)

// runFingerprint identifies the run a checkpoint belongs to: the data, the
// parameters Fit starts from, the loss and every hyper-parameter that
// shapes the weight trajectory. Epochs is left out, so a finished run can
// be extended; cfg.BatchSize must already be defaulted.
func runFingerprint(n *Network, x, y *tensor.Matrix, loss Loss, cfg TrainConfig) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%T%v|%d|%g|%g|%d", loss, loss, cfg.BatchSize, cfg.LR, cfg.WeightDecay, cfg.Seed)
	var b []byte
	for _, m := range append([]*tensor.Matrix{x, y}, n.Params()...) {
		fmt.Fprintf(h, "|%dx%d|", m.Rows, m.Cols)
		for i := 0; i < m.Rows; i++ {
			b = b[:0]
			for _, v := range m.Row(i) {
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
			}
			h.Write(b)
		}
	}
	return h.Sum64()
}

// resume restores the checkpoint at path into n and opt and returns the
// epochs it covers: 0 when there is no file, an error naming the file when
// it is corrupt or belongs to another run.
func resume(path string, n *Network, opt *AdamW, run uint64) (int, error) {
	raw, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, nil
	}
	epoch := 0
	if err == nil {
		epoch, err = loadCheckpoint(raw, n, opt, run)
	}
	if err != nil {
		return 0, fmt.Errorf("nn: resume from %s: %w", path, err)
	}
	return epoch, nil
}

// saveCheckpoint atomically writes a training checkpoint: the run's
// fingerprint, the network's parameters at full precision, the AdamW
// moments and step count, and the number of completed epochs. The file is
// replaced atomically (atomicfile.WriteFile), so a crash mid-save leaves the
// previous checkpoint intact.
func saveCheckpoint(path string, n *Network, opt *AdamW, epoch int, run uint64) error {
	params := n.Params()
	le := binary.LittleEndian
	b := le.AppendUint64(nil, run)
	b = le.AppendUint32(b, uint32(epoch))
	b = le.AppendUint32(b, uint32(len(params)))
	floats := func(vals []float64) {
		for _, v := range vals {
			b = le.AppendUint64(b, math.Float64bits(v))
		}
	}
	for _, p := range params {
		b = le.AppendUint32(b, uint32(len(p.Data)))
		floats(p.Data)
	}
	b = append(b, ckptOptAdamW)
	b = le.AppendUint64(b, uint64(opt.t))
	// Moments may not be allocated yet (no step taken): store zeros of the
	// right shape so load never has to special-case.
	for _, moments := range [][][]float64{opt.m, opt.v} {
		for i, p := range params {
			if moments == nil {
				floats(make([]float64, len(p.Data)))
			} else {
				floats(moments[i])
			}
		}
	}
	return atomicfile.WriteFile(path, atomicfile.Seal(ckptMagic, ckptVersion, b))
}

// loadCheckpoint restores a checkpoint written by saveCheckpoint into net
// and opt, returning the number of completed epochs. It rejects — with an
// error, never a panic, and changing neither net nor opt — truncated files,
// bit flips (CRC mismatch), a checkpoint of a run other than run, shape
// mismatches against the given network, an optimiser kind other than
// AdamW, and values a resumed run could not survive: non-finite parameters
// or first moments, negative or non-finite second moments, and a step
// count int cannot hold. The network's shape fixes the payload's size, so
// once that checks out every field lies inside it.
func loadCheckpoint(raw []byte, n *Network, opt *AdamW, run uint64) (int, error) {
	payload, err := atomicfile.Unseal(ckptMagic, ckptVersion, raw)
	if err != nil {
		return 0, fmt.Errorf("nn: checkpoint: %w", err)
	}
	le := binary.LittleEndian
	if len(payload) >= 8 && le.Uint64(payload) != run {
		return 0, fmt.Errorf("nn: checkpoint is of another run (fingerprint %#016x, want %#016x): data, starting weights, loss or hyper-parameters differ", le.Uint64(payload), run)
	}
	params := n.Params()
	size := 8 + 4 + 4 + 1 + 8
	for _, p := range params {
		size += 4 + 3*8*len(p.Data)
	}
	if len(payload) != size || int(le.Uint32(payload[12:])) != len(params) {
		return 0, fmt.Errorf("nn: checkpoint payload of %d bytes is no checkpoint of this network's %d tensors (%d bytes)", len(payload), len(params), size)
	}
	at := 16
	next := func(k int) []byte {
		at += k
		return payload[at-k : at]
	}
	// floats reads k values, or answers nil when one is not finite or is
	// below lo.
	floats := func(k int, lo float64) []float64 {
		vals := make([]float64, k)
		for i := range vals {
			if vals[i] = math.Float64frombits(le.Uint64(next(8))); !(vals[i] >= lo) || math.IsInf(vals[i], 0) {
				return nil
			}
		}
		return vals
	}
	vals := make([][]float64, len(params))
	for i, p := range params {
		if l := int(le.Uint32(next(4))); l != len(p.Data) {
			return 0, fmt.Errorf("nn: checkpoint param %d has %d values, network expects %d", i, l, len(p.Data))
		}
		if vals[i] = floats(len(p.Data), math.Inf(-1)); vals[i] == nil {
			return 0, fmt.Errorf("nn: checkpoint param %d contains non-finite values", i)
		}
	}
	if kind := next(1)[0]; kind != ckptOptAdamW {
		return 0, fmt.Errorf("nn: unknown checkpoint optimiser kind %d", kind)
	}
	t := le.Uint64(next(8))
	if t > math.MaxInt64 {
		return 0, fmt.Errorf("nn: checkpoint AdamW step count %d overflows int", t)
	}
	// m is a running mean of gradients, v one of their squares.
	moments := [2][][]float64{make([][]float64, len(params)), make([][]float64, len(params))}
	for k, lo := range []float64{math.Inf(-1), 0} {
		for i, p := range params {
			if moments[k][i] = floats(len(p.Data), lo); moments[k][i] == nil {
				return 0, fmt.Errorf("nn: checkpoint AdamW %c[%d] holds a non-finite value or one below %v", "mv"[k], i, lo)
			}
		}
	}

	// Everything validated: only now mutate the network and the optimiser.
	for i, p := range params {
		copy(p.Data, vals[i])
	}
	opt.t, opt.m, opt.v = int(t), moments[0], moments[1]
	return int(le.Uint32(payload[8:])), nil
}
