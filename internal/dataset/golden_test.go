package dataset

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
	"time"
)

// TestGenerateGolden pins the generator's output bits: an FNV-1a hash over
// every field of every record of four paper-config traces, the same constant
// under either OCCU_KERNEL setting (the channel simulator's ray sum runs on
// an exact AVX2 kernel when the CPU has one) and at the commit before that
// kernel existed. Between them the traces cover empty nights, busy working
// afternoons, the forced-busy fold-5 afternoon, eight furniture moves and
// the paper's 20 Hz rate. If a change to the simulator's physics moves this
// constant on purpose, say so where it lands; a change that only makes the
// generator faster must not move it.
func TestGenerateGolden(t *testing.T) {
	traces := []struct {
		rate  float64
		seed  int64
		hours float64
	}{
		{0.5, 1, 12},
		{2, 5, 2},
		{1.0 / 30, 1, 74},
		{20, 9, 1.0 / 3},
	}
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	n := 0
	for _, tr := range traces {
		cfg := DefaultGenConfig(tr.rate, tr.seed)
		cfg.Duration = time.Duration(tr.hours * float64(time.Hour))
		d, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range d.Records {
			r := &d.Records[i]
			put(uint64(r.Time.UnixNano()))
			for _, v := range r.CSI {
				put(math.Float64bits(v))
			}
			put(math.Float64bits(r.Temp))
			put(math.Float64bits(r.Humidity))
			put(uint64(r.Count))
			put(uint64(r.Walking))
		}
		n += d.Len()
	}
	const want = 0x2f388300148bd776
	if n != 68880 || h.Sum64() != want {
		t.Fatalf("%d records hashing to %#016x, want 68880 hashing to %#016x", n, h.Sum64(), uint64(want))
	}
}
