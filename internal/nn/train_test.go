package nn

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cpukit"
	"repro/internal/tensor"
)

// TestTrainConfigValidateRejectsNonFinite: NaN passes every ordered range
// check, so Validate must refuse NaN and ±Inf in each rate by name — a NaN
// learning rate otherwise trains into a model of NaN weights. Negative rates
// stay refused; zero rates (no decay) stay accepted.
func TestTrainConfigValidateRejectsNonFinite(t *testing.T) {
	for _, f := range []struct {
		name string
		set  func(*TrainConfig, float64)
	}{
		{"LR", func(c *TrainConfig, v float64) { c.LR = v }},
		{"WeightDecay", func(c *TrainConfig, v float64) { c.WeightDecay = v }},
	} {
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1e-3} {
			c := DefaultTrainConfig()
			f.set(&c, bad)
			if err := c.Validate(); err == nil || !strings.Contains(err.Error(), " "+f.name+" = ") {
				t.Errorf("%s = %v: Validate() = %v, want an error naming the field", f.name, bad, err)
			}
		}
		c := DefaultTrainConfig()
		f.set(&c, 0)
		if err := c.Validate(); err != nil {
			t.Errorf("%s = 0: Validate() = %v", f.name, err)
		}
	}
}

// TestFitOnlineWeightsGolden pins the bits of twenty FitOnline steps: a
// 10→16→12→1 MLP (a k%4 tail in the first layer, clipping that fires) fed
// a fresh 9-row batch each step, FNV-1a over every returned loss and then
// every parameter. FitOnline shares Fit's per-batch step, so this constant
// moves only if the optimiser's trajectory does; it is the same under both
// kernels.
func TestFitOnlineWeightsGolden(t *testing.T) {
	const want = uint64(0xa1619e8e7ef17a91)
	rng := rand.New(rand.NewSource(21))
	net := NewMLP(10, []int{16, 12}, 1, rng)
	opt := NewAdamW(5e-3, 1e-4)
	h := fnv.New64a()
	var b [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for step := 0; step < 20; step++ {
		x := tensor.NewMatrix(9, 10).RandomizeNormal(rng, 1)
		y := tensor.NewMatrix(9, 1)
		for i := 0; i < 9; i++ {
			if x.At(i, 0)-x.At(i, 3) > 0 {
				y.Set(i, 0, 1)
			}
		}
		put(net.FitOnline(x, y, BCEWithLogits{}, opt, 0.5))
	}
	for _, p := range net.Params() {
		for _, v := range p.Data {
			put(v)
		}
	}
	if got := h.Sum64(); got != want {
		t.Fatalf("FitOnline weights hash %#016x under kernel %s, want %#016x", got, cpukit.Active(), want)
	}
}
