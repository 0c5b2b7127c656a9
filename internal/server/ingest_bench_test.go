package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/framelog"
	"repro/internal/linmodel"
	"repro/internal/nn"
	"repro/internal/server"
	"repro/internal/stream"
	"repro/internal/tensor"
)

// mlpPred builds a paper-architecture detector with random (untrained)
// weights — inference cost is a function of the architecture, not the
// weight values, so this prices the real serving pipeline without paying
// for training in a benchmark.
func mlpPred() stream.Predictor {
	rng := rand.New(rand.NewSource(9))
	return &core.Detector{
		Net:      nn.NewMLP(66, core.PaperHidden, 1, rng),
		Scaler:   linmodel.FitScaler(tensor.NewMatrix(32, 66).RandomizeNormal(rng, 1)),
		Features: dataset.FeatCSIEnv,
	}
}

// BenchmarkIngest measures the HTTP ingest path end to end — JSON decode,
// validation, log append, decision — with and without the durable frame log,
// so the durability tax is one diff: the per-frame delta between the
// "durable-interval" and "volatile" lines is what DESIGN.md §13's <5%
// overhead bound refers to. Each op is one 64-frame batch; divide ns/op by
// 64 for the per-frame cost (also reported as frames/op). The "amp" cases
// use a zero-cost predictor so the diff isolates the durability delta in
// the worst light; the "mlp" cases put the paper MLP behind the feed — the
// deployment shape the relative-overhead bound is stated against.
func BenchmarkIngest(b *testing.B) {
	const batch = 64
	cases := []struct {
		name string
		mod  func(*server.Config)
	}{
		{"amp-volatile", nil},
		{"amp-durable-interval", func(cfg *server.Config) {
			cfg.Durability = framelog.Config{Dir: b.TempDir(), Fsync: framelog.FsyncInterval}
		}},
		{"amp-durable-off", func(cfg *server.Config) {
			cfg.Durability = framelog.Config{Dir: b.TempDir(), Fsync: framelog.FsyncOff}
		}},
		{"mlp-volatile", func(cfg *server.Config) {
			cfg.Primary = mlpPred()
		}},
		{"mlp-durable-interval", func(cfg *server.Config) {
			cfg.Primary = mlpPred()
			cfg.Durability = framelog.Config{Dir: b.TempDir(), Fsync: framelog.FsyncInterval}
		}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			cfg := server.Config{Primary: ampPred{}}
			if tc.mod != nil {
				tc.mod(&cfg)
			}
			srv, err := server.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()

			frames := mkFrames(batch, 0.9)
			body, err := json.Marshal(server.IngestRequest{Frames: frames})
			if err != nil {
				b.Fatal(err)
			}
			put, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/feeds/bench", nil)
			if err != nil {
				b.Fatal(err)
			}
			if resp, err := http.DefaultClient.Do(put); err != nil || resp.StatusCode != http.StatusCreated {
				b.Fatalf("register: %v %v", resp, err)
			} else {
				resp.Body.Close()
			}

			url := ts.URL + "/v1/feeds/bench/frames"
			b.ReportMetric(batch, "frames/op")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resp, err := http.Post(url, "application/json", bytes.NewReader(body))
				if err != nil {
					b.Fatal(err)
				}
				if resp.StatusCode != http.StatusAccepted {
					b.Fatal(fmt.Errorf("ingest: status %d", resp.StatusCode))
				}
				resp.Body.Close()
			}
		})
	}
}
