package occupancy

import (
	"context"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cpukit"
	"repro/internal/dataset"
	"repro/internal/linmodel"
	"repro/internal/nn"
)

// runServer boots a server on an untrained C+E network (no training: the
// tests here never read a score) and drains it when the test ends.
func runServer(t *testing.T, cfg ServeConfig) *Server {
	t.Helper()
	dim := dataset.FeatCSIEnv.Dim()
	sc := &linmodel.Scaler{Mean: make([]float64, dim), Std: make([]float64, dim)}
	for i := range sc.Std {
		sc.Std[i] = 1
	}
	net := nn.NewMLP(dim, []int{8}, 1, rand.New(rand.NewSource(3)))
	d := &Detector{det: &core.Detector{Net: net, Scaler: sc, Features: dataset.FeatCSIEnv}}
	cfg.Addr = "127.0.0.1:0"
	srv, err := NewServer(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Run(ctx) }()
	t.Cleanup(func() {
		cancel()
		if err := <-done; err != nil {
			t.Error(err)
		}
	})
	return srv
}

// TestPartialHeadersTimeOut: a client that sends a request line and never
// finishes its headers loses its connection once RequestTimeout has passed,
// instead of holding it and its goroutine forever. Any path will do: the
// headers never end, so no handler runs.
func TestPartialHeadersTimeOut(t *testing.T) {
	srv := runServer(t, ServeConfig{RequestTimeout: 200 * time.Millisecond})
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\n"); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("connection with unfinished headers still open after 2 s: %v", err)
	}
}

// TestMetricsKernelGauge: /metrics carries infer_kernel_avx2, 1 exactly
// when the AVX2 kernels serve this process.
func TestMetricsKernelGauge(t *testing.T) {
	srv := runServer(t, ServeConfig{})
	resp, err := http.Get(srv.URL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	want := "infer_kernel_avx2 0\n"
	if cpukit.Active() == cpukit.KernelAVX2 {
		want = "infer_kernel_avx2 1\n"
	}
	if !strings.Contains(string(body), want) {
		t.Fatalf("/metrics lacks %q (kernel %s)", want, cpukit.Active())
	}
}
