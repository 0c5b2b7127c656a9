package rf

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Binary forest format:
//
//	magic    uint32  0x52464f31 ("RFO1")
//	flags    uint8   bit0: regression
//	nFeat    uint32
//	nTrees   uint32
//	per tree:
//	  nNodes uint32
//	  per node: feature int32, threshold float64, left uint32,
//	            right uint32, value float64, samples uint32
const forestMagic = 0x52464F31

// Save writes the forest to w.
func (f *Forest) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if err := binary.Write(bw, binary.LittleEndian, uint32(forestMagic)); err != nil {
		return err
	}
	var flags uint8
	if f.regression {
		flags |= 1
	}
	if err := bw.WriteByte(flags); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(f.nFeatures)); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(f.Trees))); err != nil {
		return err
	}
	for _, t := range f.Trees {
		if err := binary.Write(bw, binary.LittleEndian, uint32(len(t.nodes))); err != nil {
			return err
		}
		for i := range t.nodes {
			nd := &t.nodes[i]
			if err := binary.Write(bw, binary.LittleEndian, int32(nd.feature)); err != nil {
				return err
			}
			if err := binary.Write(bw, binary.LittleEndian, nd.threshold); err != nil {
				return err
			}
			if err := binary.Write(bw, binary.LittleEndian, uint32(nd.left)); err != nil {
				return err
			}
			if err := binary.Write(bw, binary.LittleEndian, uint32(nd.right)); err != nil {
				return err
			}
			if err := binary.Write(bw, binary.LittleEndian, nd.value); err != nil {
				return err
			}
			if err := binary.Write(bw, binary.LittleEndian, uint32(nd.samples)); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Load reads a forest written by Save.
func Load(r io.Reader) (*Forest, error) {
	br := bufio.NewReader(r)
	var magic uint32
	if err := binary.Read(br, binary.LittleEndian, &magic); err != nil {
		return nil, fmt.Errorf("rf: reading magic: %w", err)
	}
	if magic != forestMagic {
		return nil, fmt.Errorf("rf: bad magic 0x%08X", magic)
	}
	flags, err := br.ReadByte()
	if err != nil {
		return nil, err
	}
	var nFeat, nTrees uint32
	if err := binary.Read(br, binary.LittleEndian, &nFeat); err != nil {
		return nil, err
	}
	if err := binary.Read(br, binary.LittleEndian, &nTrees); err != nil {
		return nil, err
	}
	if nTrees > 1<<20 || nFeat > 1<<24 {
		return nil, fmt.Errorf("rf: implausible header (%d trees, %d features)", nTrees, nFeat)
	}
	f := &Forest{
		regression: flags&1 != 0,
		nFeatures:  int(nFeat),
		Trees:      make([]*Tree, nTrees),
	}
	for ti := range f.Trees {
		var nNodes uint32
		if err := binary.Read(br, binary.LittleEndian, &nNodes); err != nil {
			return nil, err
		}
		// 1<<22 nodes is far beyond any forest this package trains, and low
		// enough that a corrupt header cannot demand gigabytes up front.
		if nNodes == 0 || nNodes > 1<<22 {
			return nil, fmt.Errorf("rf: implausible node count %d", nNodes)
		}
		t := &Tree{regression: f.regression, nodes: make([]node, nNodes)}
		for i := range t.nodes {
			nd := &t.nodes[i]
			var feat int32
			var left, right, samples uint32
			if err := binary.Read(br, binary.LittleEndian, &feat); err != nil {
				return nil, err
			}
			if err := binary.Read(br, binary.LittleEndian, &nd.threshold); err != nil {
				return nil, err
			}
			if err := binary.Read(br, binary.LittleEndian, &left); err != nil {
				return nil, err
			}
			if err := binary.Read(br, binary.LittleEndian, &right); err != nil {
				return nil, err
			}
			if err := binary.Read(br, binary.LittleEndian, &nd.value); err != nil {
				return nil, err
			}
			if err := binary.Read(br, binary.LittleEndian, &samples); err != nil {
				return nil, err
			}
			if feat >= int32(nFeat) || math.IsNaN(nd.threshold) {
				return nil, fmt.Errorf("rf: corrupt node %d in tree %d", i, ti)
			}
			if feat >= 0 && (left >= nNodes || right >= nNodes) {
				return nil, fmt.Errorf("rf: dangling child in tree %d node %d", ti, i)
			}
			nd.feature = int(feat)
			nd.left = int(left)
			nd.right = int(right)
			nd.samples = int(samples)
		}
		f.Trees[ti] = t
	}
	return f, nil
}
