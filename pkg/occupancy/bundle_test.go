package occupancy

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/linmodel"
	"repro/internal/nn"
)

// TestUnservableBundleRefused: a bundle that parses but that no arena can
// score — a 2-column head, a Dense whose input width is not its
// predecessor's output, a CNN — is refused whole at f64 and at f32. POST
// /v1/models answers 422 model_rejected and installs nothing, and NewServer
// will not boot on it, so no such model ever reaches a frame.
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
	broken := map[string]*Detector{
		"2-column head":      bundle(nn.NewMLP(dim, []int{16}, 2, rng)),
		"non-chaining Dense": bundle(nn.NewNetwork(nn.NewDense(dim, 8, rng), nn.NewReLU(), nn.NewDense(16, 1, rng))),
		"CNN":                bundle(nn.NewCNN(dim, 1, rng)),
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
			var blob bytes.Buffer
			if err := d.det.Save(&blob); err != nil {
				t.Fatal(err)
			}
			if _, err := cl.InstallModel(ctx, blob.Bytes()); !IsCode(err, "model_rejected") {
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
