package occupancy

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/linmodel"
	"repro/internal/nn"
)

// TestUnservableBundleRefused: a bundle that parses but that no arena can
// score — a 2-column head, a Dense whose input width is not its
// predecessor's output, a CNN — is refused whole at f64 and at f32, and so
// is one whose weights hold a NaN and whose bias holds a +Inf, which Save
// refuses to write and core.LoadDetector to read. POST /v1/models answers 422
// model_rejected and installs nothing, and NewServer will not boot on it,
// so no such model ever reaches a frame.
func TestUnservableBundleRefused(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	dim := dataset.FeatCSIEnv.Dim()
	bundle := func(net *nn.Network) *Detector {
		sc := &linmodel.Scaler{Mean: make([]float64, dim), Std: make([]float64, dim)}
		for i := range sc.Std {
			sc.Std[i] = 1
		}
		return &Detector{det: &core.Detector{Net: net, Scaler: sc, Features: dataset.FeatCSIEnv}}
	}
	boot := bundle(nn.NewMLP(dim, []int{8}, 1, rng))
	nonFinite := nn.NewMLP(dim, []int{8}, 1, rng)
	w, b := &nonFinite.Layers[0].(*nn.Dense).W.Data[3], &nonFinite.Layers[2].(*nn.Dense).B.Data[0]
	*w, *b = math.NaN(), math.Inf(1)
	broken := map[string]*Detector{
		"2-column head":        bundle(nn.NewMLP(dim, []int{16}, 2, rng)),
		"non-chaining Dense":   bundle(nn.NewNetwork(nn.NewDense(dim, 8, rng), nn.NewReLU(), nn.NewDense(16, 1, rng))),
		"CNN":                  bundle(nn.NewCNN(dim, 1, rng)),
		"NaN-weight +Inf-bias": bundle(nonFinite),
	}
	save := func(d *Detector) ([]byte, error) {
		var blob bytes.Buffer
		err := d.det.Save(&blob)
		return blob.Bytes(), err
	}
	blobs := map[string][]byte{}
	for name, d := range broken {
		blob, err := save(d)
		if name == "NaN-weight +Inf-bias" {
			if err == nil {
				t.Error("Save wrote a bundle with a NaN weight and a +Inf bias")
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		blobs[name] = blob
	}
	// Save refuses the non-finite model, so its bundle is saved with marked
	// finite values in the two slots, whose float32 encodings are then
	// patched to NaN and +Inf.
	*w, *b = 1234.5, -5678.25
	raw, err := save(broken["NaN-weight +Inf-bias"])
	if err != nil {
		t.Fatal(err)
	}
	*w, *b = math.NaN(), math.Inf(1)
	for mark, v := range map[float32]float64{1234.5: math.NaN(), -5678.25: math.Inf(1)} {
		from := binary.LittleEndian.AppendUint32(nil, math.Float32bits(mark))
		if n := bytes.Count(raw, from); n != 1 {
			t.Fatalf("marked parameter %v found %d times in the bundle", mark, n)
		}
		raw = bytes.Replace(raw, from, binary.LittleEndian.AppendUint32(nil, math.Float32bits(float32(v))), 1)
	}
	blobs["NaN-weight +Inf-bias"] = raw
	if _, err := core.LoadDetector(bytes.NewReader(raw)); err == nil {
		t.Error("core.LoadDetector read a bundle with a NaN weight and a +Inf bias")
	}
	for _, prec := range []string{PrecisionF64, PrecisionF32} {
		cfg := ServeConfig{Addr: "127.0.0.1:0", Precision: prec}
		srv, err := NewServer(boot, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- srv.Run(ctx) }()
		cl, err := NewClient(ClientConfig{BaseURL: srv.URL(), DisableRouting: true})
		if err != nil {
			t.Fatal(err)
		}
		for name, d := range broken {
			if _, err := cl.InstallModel(ctx, blobs[name]); !IsCode(err, "model_rejected") {
				t.Errorf("%s: installing a %s bundle answered %v, want 422 model_rejected", prec, name, err)
			}
			if s, err := NewServer(d, cfg); err == nil {
				t.Errorf("%s: NewServer booted on a %s bundle", prec, name)
				stopped, stop := context.WithCancel(context.Background())
				stop()
				_ = s.Run(stopped)
			}
		}
		if ms, err := cl.Models(ctx); err != nil || len(ms.Models) != 1 {
			t.Errorf("%s: after the refusals the node lists %d models (%v), want only the boot bundle", prec, len(ms.Models), err)
		}
		cancel()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
