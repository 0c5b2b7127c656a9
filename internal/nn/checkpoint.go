package nn

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"repro/internal/atomicfile"
	"repro/internal/tensor"
)

// Training checkpoint format — distinct from the float32 deployment format
// in serialize.go because resume must be *bit-exact*: parameters and AdamW
// moments are stored as float64, and the whole payload is CRC-guarded so a
// torn write or a flipped bit is rejected at load instead of silently
// poisoning the resumed run.
//
//	magic      uint32  0x4F434B50 ("OCKP")
//	version    uint32  1
//	crc32      uint32  IEEE, over the payload bytes
//	payloadLen uint64
//	payload:
//	  epoch    uint32  epochs fully completed
//	  nParams  uint32
//	  per param: len uint32, float64[len]
//	  optKind  uint8   0 = stateless, 1 = AdamW
//	  AdamW:   t uint64, then m and v float64 arrays matching the params
const (
	ckptMagic   = 0x4F434B50
	ckptVersion = 1

	ckptOptStateless = 0
	ckptOptAdamW     = 1
)

// SaveCheckpoint atomically writes a training checkpoint: the network's
// parameters at full precision, the optimiser state (AdamW moments and
// step count; stateless optimisers store nothing) and the number of
// completed epochs. The file is replaced atomically (atomicfile.Write), so
// a crash mid-save leaves the previous checkpoint intact.
func SaveCheckpoint(path string, n *Network, opt Optimizer, epoch int) error {
	params := n.Params()
	var payload bytes.Buffer
	le := binary.LittleEndian
	binary.Write(&payload, le, uint32(epoch))
	binary.Write(&payload, le, uint32(len(params)))
	for _, p := range params {
		binary.Write(&payload, le, uint32(len(p.Data)))
		writeFloat64s(&payload, p.Data)
	}
	switch o := opt.(type) {
	case *AdamW:
		payload.WriteByte(ckptOptAdamW)
		binary.Write(&payload, le, uint64(o.t))
		// Moments may not be allocated yet (no step taken): store zeros of
		// the right shape so load never has to special-case.
		for i, p := range params {
			if o.m == nil {
				writeFloat64s(&payload, make([]float64, len(p.Data)))
			} else {
				writeFloat64s(&payload, o.m[i])
			}
		}
		for i, p := range params {
			if o.v == nil {
				writeFloat64s(&payload, make([]float64, len(p.Data)))
			} else {
				writeFloat64s(&payload, o.v[i])
			}
		}
	default:
		payload.WriteByte(ckptOptStateless)
	}

	var out bytes.Buffer
	binary.Write(&out, le, uint32(ckptMagic))
	binary.Write(&out, le, uint32(ckptVersion))
	binary.Write(&out, le, crc32.ChecksumIEEE(payload.Bytes()))
	binary.Write(&out, le, uint64(payload.Len()))
	out.Write(payload.Bytes())

	return atomicfile.Write(path, func(w io.Writer) error {
		_, err := w.Write(out.Bytes())
		return err
	})
}

// LoadCheckpoint restores a checkpoint written by SaveCheckpoint into net
// and opt, returning the number of completed epochs. It rejects — with an
// error, never a panic — truncated files, bit flips (CRC mismatch), shape
// mismatches against the given network, and optimiser-kind mismatches.
func LoadCheckpoint(path string, n *Network, opt Optimizer) (epoch int, err error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	le := binary.LittleEndian
	if len(raw) < 20 {
		return 0, fmt.Errorf("nn: checkpoint truncated (%d bytes)", len(raw))
	}
	if got := le.Uint32(raw[0:]); got != ckptMagic {
		return 0, fmt.Errorf("nn: bad checkpoint magic 0x%08X", got)
	}
	if got := le.Uint32(raw[4:]); got != ckptVersion {
		return 0, fmt.Errorf("nn: unsupported checkpoint version %d", got)
	}
	wantCRC := le.Uint32(raw[8:])
	payloadLen := le.Uint64(raw[12:])
	payload := raw[20:]
	if uint64(len(payload)) != payloadLen {
		return 0, fmt.Errorf("nn: checkpoint truncated (payload %d bytes, header says %d)", len(payload), payloadLen)
	}
	if got := crc32.ChecksumIEEE(payload); got != wantCRC {
		return 0, fmt.Errorf("nn: checkpoint corrupt (crc 0x%08X, want 0x%08X)", got, wantCRC)
	}

	r := bytes.NewReader(payload)
	var epoch32, nParams uint32
	if err := binary.Read(r, le, &epoch32); err != nil {
		return 0, fmt.Errorf("nn: checkpoint: %w", err)
	}
	if err := binary.Read(r, le, &nParams); err != nil {
		return 0, fmt.Errorf("nn: checkpoint: %w", err)
	}
	params := n.Params()
	if int(nParams) != len(params) {
		return 0, fmt.Errorf("nn: checkpoint has %d parameter tensors, network has %d", nParams, len(params))
	}
	vals := make([][]float64, nParams)
	for i := range vals {
		var l uint32
		if err := binary.Read(r, le, &l); err != nil {
			return 0, fmt.Errorf("nn: checkpoint: %w", err)
		}
		if int(l) != len(params[i].Data) {
			return 0, fmt.Errorf("nn: checkpoint param %d has %d values, network expects %d", i, l, len(params[i].Data))
		}
		vals[i] = make([]float64, l)
		if err := readFloat64s(r, vals[i]); err != nil {
			return 0, fmt.Errorf("nn: checkpoint param %d: %w", i, err)
		}
		for _, v := range vals[i] {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0, fmt.Errorf("nn: checkpoint param %d contains non-finite values", i)
			}
		}
	}
	optKind, err := r.ReadByte()
	if err != nil {
		return 0, fmt.Errorf("nn: checkpoint: %w", err)
	}
	switch optKind {
	case ckptOptStateless:
		if _, isAdam := opt.(*AdamW); isAdam {
			return 0, fmt.Errorf("nn: checkpoint has no optimiser state but resume uses AdamW")
		}
	case ckptOptAdamW:
		a, ok := opt.(*AdamW)
		if !ok {
			return 0, fmt.Errorf("nn: checkpoint carries AdamW state but resume uses %T", opt)
		}
		var t uint64
		if err := binary.Read(r, le, &t); err != nil {
			return 0, fmt.Errorf("nn: checkpoint: %w", err)
		}
		m := make([][]float64, nParams)
		v := make([][]float64, nParams)
		for i := range m {
			m[i] = make([]float64, len(params[i].Data))
			if err := readFloat64s(r, m[i]); err != nil {
				return 0, fmt.Errorf("nn: checkpoint AdamW m[%d]: %w", i, err)
			}
		}
		for i := range v {
			v[i] = make([]float64, len(params[i].Data))
			if err := readFloat64s(r, v[i]); err != nil {
				return 0, fmt.Errorf("nn: checkpoint AdamW v[%d]: %w", i, err)
			}
		}
		a.t = int(t)
		a.m = m
		a.v = v
	default:
		return 0, fmt.Errorf("nn: unknown checkpoint optimiser kind %d", optKind)
	}
	if r.Len() != 0 {
		return 0, fmt.Errorf("nn: checkpoint has %d trailing bytes", r.Len())
	}

	// Everything validated: only now mutate the network.
	for i, p := range params {
		copy(p.Data, vals[i])
	}
	return int(epoch32), nil
}

// FitCheckpointed wraps Fit with checkpoint/resume: if path exists it is
// loaded (a corrupt file is an error, not a silent restart) and training
// continues from the recorded epoch, replaying the shuffle RNG so the
// resumed run is bit-identical to an uninterrupted one; a checkpoint is
// saved atomically after every `every` epochs (and after the final one).
// Returns the per-epoch losses of the epochs actually run.
//
// Exactness holds for dropout-free networks (dropout draws are not part of
// the checkpoint); the paper's MLP qualifies.
func (n *Network) FitCheckpointed(x, y *tensor.Matrix, loss Loss, cfg TrainConfig, path string, every int) ([]float64, error) {
	if every <= 0 {
		every = 1
	}
	opt := cfg.Optimizer
	if opt == nil {
		opt = NewAdamW(cfg.LR, cfg.WeightDecay)
	}
	cfg.Optimizer = opt
	if _, statErr := os.Stat(path); statErr == nil {
		ep, err := LoadCheckpoint(path, n, opt)
		if err != nil {
			return nil, fmt.Errorf("nn: resume from %s: %w", path, err)
		}
		cfg.StartEpoch = ep
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 1
	}
	if cfg.StartEpoch >= cfg.Epochs {
		return nil, nil
	}
	userHook := cfg.OnEpoch
	var saveErr error
	lastEpoch := cfg.Epochs - 1
	cfg.OnEpoch = func(epoch int, l float64) {
		if userHook != nil {
			userHook(epoch, l)
		}
		if (epoch+1)%every == 0 || epoch == lastEpoch {
			if err := SaveCheckpoint(path, n, opt, epoch+1); err != nil && saveErr == nil {
				saveErr = err
			}
		}
	}
	hist := n.Fit(x, y, loss, cfg)
	return hist, saveErr
}

func writeFloat64s(buf *bytes.Buffer, data []float64) {
	b := make([]byte, 8*len(data))
	for i, v := range data {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
	buf.Write(b)
}

func readFloat64s(r *bytes.Reader, dst []float64) error {
	b := make([]byte, 8*len(dst))
	if _, err := io.ReadFull(r, b); err != nil {
		return err
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return nil
}
