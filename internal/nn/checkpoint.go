package nn

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
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
// poisoning the resumed run. The envelope is the frame log's: CRC-32C over
// the payload.
//
//	magic      uint32  0x4F434B50 ("OCKP")
//	version    uint32  2
//	crc32      uint32  Castagnoli, over the payload bytes
//	payloadLen uint64
//	payload:
//	  run      uint64  runFingerprint of the run that wrote it
//	  epoch    uint32  epochs fully completed
//	  nParams  uint32
//	  per param: len uint32, float64[len]
//	  optKind  uint8   1 = AdamW (0, a stateless optimiser, is refused)
//	  AdamW:   t uint64, then m and v float64 arrays matching the params
const (
	ckptMagic   = 0x4F434B50
	ckptVersion = 2

	ckptOptAdamW = 1
)

var ckptCRC = crc32.MakeTable(crc32.Castagnoli)

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
// replaced atomically (atomicfile.Write), so a crash mid-save leaves the
// previous checkpoint intact.
func saveCheckpoint(path string, n *Network, opt *AdamW, epoch int, run uint64) error {
	params := n.Params()
	var payload bytes.Buffer
	le := binary.LittleEndian
	binary.Write(&payload, le, run)
	binary.Write(&payload, le, uint32(epoch))
	binary.Write(&payload, le, uint32(len(params)))
	for _, p := range params {
		binary.Write(&payload, le, uint32(len(p.Data)))
		writeFloat64s(&payload, p.Data)
	}
	payload.WriteByte(ckptOptAdamW)
	binary.Write(&payload, le, uint64(opt.t))
	// Moments may not be allocated yet (no step taken): store zeros of the
	// right shape so load never has to special-case.
	for _, moments := range [][][]float64{opt.m, opt.v} {
		for i, p := range params {
			if moments == nil {
				writeFloat64s(&payload, make([]float64, len(p.Data)))
			} else {
				writeFloat64s(&payload, moments[i])
			}
		}
	}

	var out bytes.Buffer
	binary.Write(&out, le, uint32(ckptMagic))
	binary.Write(&out, le, uint32(ckptVersion))
	binary.Write(&out, le, crc32.Checksum(payload.Bytes(), ckptCRC))
	binary.Write(&out, le, uint64(payload.Len()))
	out.Write(payload.Bytes())

	return atomicfile.Write(path, func(w io.Writer) error {
		_, err := w.Write(out.Bytes())
		return err
	})
}

// loadCheckpoint restores a checkpoint written by saveCheckpoint into net
// and opt, returning the number of completed epochs. It rejects — with an
// error, never a panic, and changing neither net nor opt — truncated files,
// bit flips (CRC mismatch), a checkpoint of a run other than run, shape
// mismatches against the given network, an optimiser kind other than
// AdamW, and values a resumed run could not survive: non-finite parameters
// or first moments, negative or non-finite second moments, and a step
// count int cannot hold.
func loadCheckpoint(raw []byte, n *Network, opt *AdamW, run uint64) (epoch int, err error) {
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
	if got := crc32.Checksum(payload, ckptCRC); got != wantCRC {
		return 0, fmt.Errorf("nn: checkpoint corrupt (crc 0x%08X, want 0x%08X)", got, wantCRC)
	}

	r := bytes.NewReader(payload)
	var ckptRun uint64
	if err := binary.Read(r, le, &ckptRun); err != nil {
		return 0, fmt.Errorf("nn: checkpoint: %w", err)
	}
	if ckptRun != run {
		return 0, fmt.Errorf("nn: checkpoint is of another run (fingerprint %#016x, want %#016x): data, starting weights, loss or hyper-parameters differ", ckptRun, run)
	}
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
		if !finiteFrom(vals[i], math.Inf(-1)) {
			return 0, fmt.Errorf("nn: checkpoint param %d contains non-finite values", i)
		}
	}
	optKind, err := r.ReadByte()
	if err != nil {
		return 0, fmt.Errorf("nn: checkpoint: %w", err)
	}
	if optKind != ckptOptAdamW {
		return 0, fmt.Errorf("nn: unknown checkpoint optimiser kind %d", optKind)
	}
	var t uint64
	if err := binary.Read(r, le, &t); err != nil {
		return 0, fmt.Errorf("nn: checkpoint: %w", err)
	}
	if t > math.MaxInt64 {
		return 0, fmt.Errorf("nn: checkpoint AdamW step count %d overflows int", t)
	}
	// m is a running mean of gradients, v one of their squares.
	m, err := readMoments(r, "m", params, math.Inf(-1))
	if err != nil {
		return 0, err
	}
	v, err := readMoments(r, "v", params, 0)
	if err != nil {
		return 0, err
	}
	if r.Len() != 0 {
		return 0, fmt.Errorf("nn: checkpoint has %d trailing bytes", r.Len())
	}

	// Everything validated: only now mutate the network and the optimiser.
	for i, p := range params {
		copy(p.Data, vals[i])
	}
	opt.t, opt.m, opt.v = int(t), m, v
	return int(epoch32), nil
}

// readMoments reads one AdamW moment array per parameter tensor, refusing
// any value that is not finite or is below lo.
func readMoments(r *bytes.Reader, name string, params []*tensor.Matrix, lo float64) ([][]float64, error) {
	out := make([][]float64, len(params))
	for i, p := range params {
		out[i] = make([]float64, len(p.Data))
		if err := readFloat64s(r, out[i]); err != nil {
			return nil, fmt.Errorf("nn: checkpoint AdamW %s[%d]: %w", name, i, err)
		}
		if !finiteFrom(out[i], lo) {
			return nil, fmt.Errorf("nn: checkpoint AdamW %s[%d] holds a non-finite value or one below %v", name, i, lo)
		}
	}
	return out, nil
}

// finiteFrom reports whether every value is finite and at least lo.
func finiteFrom(vals []float64, lo float64) bool {
	for _, v := range vals {
		if !(v >= lo) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
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
