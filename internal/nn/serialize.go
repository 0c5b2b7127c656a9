package nn

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Binary model format:
//
//	magic   uint32  0x4F43574E ("OCWN")
//	version uint32  1
//	nLayers uint32
//	per layer:
//	  kind   uint8   (0 dense, 1 relu, 5 conv1d, 6 maxpool1d; 2–4 held
//	                  layers no model builds and are refused as unknown)
//	  dense:   in uint32, out uint32, W float32[in*out], B float32[out]
//	  conv1d:  inC, outC, k, l uint32, W float32[outC*inC*k], B float32[outC]
//	  maxpool: c, l, w uint32
//
// Weights are stored as float32: this is the deployment format whose size
// §IV-B reports (15.18 KiB class), and it halves the artefact size with no
// measurable accuracy change for this problem.
const (
	modelMagic   = 0x4F43574E
	modelVersion = 1
)

const (
	kindDense   = 0
	kindReLU    = 1
	kindConv1D  = 5
	kindMaxPool = 6
)

// Save writes the network to w in the binary model format. A weight or bias
// that is not a finite float32 is an error, the one Load would report.
func (n *Network) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if err := binary.Write(bw, binary.LittleEndian, uint32(modelMagic)); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(modelVersion)); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(n.Layers))); err != nil {
		return err
	}
	for _, l := range n.Layers {
		switch t := l.(type) {
		case *Dense:
			if err := bw.WriteByte(kindDense); err != nil {
				return err
			}
			if err := binary.Write(bw, binary.LittleEndian, uint32(t.In)); err != nil {
				return err
			}
			if err := binary.Write(bw, binary.LittleEndian, uint32(t.Out)); err != nil {
				return err
			}
			if err := writeFloat32s(bw, t.W.Data); err != nil {
				return err
			}
			if err := writeFloat32s(bw, t.B.Data); err != nil {
				return err
			}
		case *ReLU:
			if err := bw.WriteByte(kindReLU); err != nil {
				return err
			}
		case *Conv1D:
			if err := bw.WriteByte(kindConv1D); err != nil {
				return err
			}
			for _, v := range []uint32{uint32(t.InC), uint32(t.OutC), uint32(t.K), uint32(t.L)} {
				if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
					return err
				}
			}
			if err := writeFloat32s(bw, t.W.Data); err != nil {
				return err
			}
			if err := writeFloat32s(bw, t.B.Data); err != nil {
				return err
			}
		case *MaxPool1D:
			if err := bw.WriteByte(kindMaxPool); err != nil {
				return err
			}
			for _, v := range []uint32{uint32(t.C), uint32(t.L), uint32(t.W)} {
				if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
					return err
				}
			}
		default:
			return fmt.Errorf("nn: cannot serialise layer type %T", l)
		}
	}
	return bw.Flush()
}

// Load reads a network in the binary model format. An unknown layer kind is
// refused, and so is a NaN or infinite weight or bias: no trained model
// holds one, and every score it touched would be NaN.
func Load(r io.Reader) (*Network, error) {
	br := bufio.NewReader(r)
	var magic, version, nLayers uint32
	if err := binary.Read(br, binary.LittleEndian, &magic); err != nil {
		return nil, fmt.Errorf("nn: reading magic: %w", err)
	}
	if magic != modelMagic {
		return nil, fmt.Errorf("nn: bad magic 0x%08X", magic)
	}
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return nil, err
	}
	if version != modelVersion {
		return nil, fmt.Errorf("nn: unsupported model version %d", version)
	}
	if err := binary.Read(br, binary.LittleEndian, &nLayers); err != nil {
		return nil, err
	}
	if nLayers > 1<<16 {
		return nil, fmt.Errorf("nn: implausible layer count %d", nLayers)
	}
	net := &Network{}
	for i := uint32(0); i < nLayers; i++ {
		kind, err := br.ReadByte()
		if err != nil {
			return nil, err
		}
		switch kind {
		case kindDense:
			var in, out uint32
			if err := binary.Read(br, binary.LittleEndian, &in); err != nil {
				return nil, err
			}
			if err := binary.Read(br, binary.LittleEndian, &out); err != nil {
				return nil, err
			}
			if in == 0 || out == 0 || in > 1<<20 || out > 1<<20 {
				return nil, fmt.Errorf("nn: implausible dense dims %dx%d", in, out)
			}
			// Cap the weight allocation, not just each dimension: a hostile
			// header with in = out = 1<<20 would otherwise demand 8 TiB
			// before the read even fails.
			if uint64(in)*uint64(out) > 1<<24 {
				return nil, fmt.Errorf("nn: implausible dense size %dx%d", in, out)
			}
			d := newDense(int(in), int(out))
			if err := readFloat32s(br, d.W.Data); err != nil {
				return nil, err
			}
			if err := readFloat32s(br, d.B.Data); err != nil {
				return nil, err
			}
			net.Layers = append(net.Layers, d)
		case kindReLU:
			net.Layers = append(net.Layers, NewReLU())
		case kindConv1D:
			var dims [4]uint32
			for j := range dims {
				if err := binary.Read(br, binary.LittleEndian, &dims[j]); err != nil {
					return nil, err
				}
				if dims[j] == 0 || dims[j] > 1<<20 {
					return nil, fmt.Errorf("nn: implausible conv dim %d", dims[j])
				}
			}
			if dims[2] > dims[3] {
				return nil, fmt.Errorf("nn: conv kernel %d exceeds length %d", dims[2], dims[3])
			}
			if uint64(dims[0])*uint64(dims[1])*uint64(dims[2]) > 1<<24 {
				return nil, fmt.Errorf("nn: implausible conv size %dx%dx%d", dims[0], dims[1], dims[2])
			}
			c := newConv1D(int(dims[0]), int(dims[1]), int(dims[2]), int(dims[3]))
			if err := readFloat32s(br, c.W.Data); err != nil {
				return nil, err
			}
			if err := readFloat32s(br, c.B.Data); err != nil {
				return nil, err
			}
			net.Layers = append(net.Layers, c)
		case kindMaxPool:
			var dims [3]uint32
			for j := range dims {
				if err := binary.Read(br, binary.LittleEndian, &dims[j]); err != nil {
					return nil, err
				}
				if dims[j] == 0 || dims[j] > 1<<20 {
					return nil, fmt.Errorf("nn: implausible pool dim %d", dims[j])
				}
			}
			if dims[2] > dims[1] {
				return nil, fmt.Errorf("nn: pool window %d exceeds length %d", dims[2], dims[1])
			}
			net.Layers = append(net.Layers, NewMaxPool1D(int(dims[0]), int(dims[1]), int(dims[2])))
		default:
			return nil, fmt.Errorf("nn: unknown layer kind %d", kind)
		}
	}
	return net, nil
}

// writeFloat32s stores data as little-endian float32s and refuses any value
// that is NaN or infinite as a float32 — a diverged weight, or a finite one
// beyond ±MaxFloat32 — since Load would refuse the bundle it wrote.
func writeFloat32s(w io.Writer, data []float64) error {
	buf := make([]byte, 4*len(data))
	for i, v := range data {
		f := float32(v)
		if math.IsNaN(float64(f)) || math.IsInf(float64(f), 0) {
			return fmt.Errorf("nn: parameter %v is not a finite float32", v)
		}
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(f))
	}
	_, err := w.Write(buf)
	return err
}

// readFloat32s fills dst from little-endian float32s and refuses any that is
// NaN or infinite.
func readFloat32s(r io.Reader, dst []float64) error {
	buf := make([]byte, 4*len(dst))
	if _, err := io.ReadFull(r, buf); err != nil {
		return err
	}
	for i := range dst {
		v := float64(math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:])))
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("nn: non-finite parameter %v", v)
		}
		dst[i] = v
	}
	return nil
}
