package occupancy

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestHugeRetryAfterWaitsTheCap: a backoff suggestion too large for a
// time.Duration, in the Retry-After header or in retry_after_ms, waits
// MaxRetryWait rather than wrapping negative into the 50 ms default.
func TestHugeRetryAfterWaitsTheCap(t *testing.T) {
	const maxWait = 400 * time.Millisecond
	for _, c := range []struct{ name, header, body string }{
		{"header", "9223372036854775807", `{"code":"rate_limited","message":"slow down"}`},
		{"body-10000000000000", "", `{"code":"rate_limited","message":"slow down","retry_after_ms":10000000000000}`},
		{"body-18446744073709", "", `{"code":"rate_limited","message":"slow down","retry_after_ms":18446744073709}`},
	} {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			var calls atomic.Int32
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				_, _ = io.Copy(io.Discard, r.Body)
				if calls.Add(1) > 1 {
					w.WriteHeader(http.StatusAccepted)
					_, _ = io.WriteString(w, `{"accepted":1}`)
					return
				}
				if c.header != "" {
					w.Header().Set("Retry-After", c.header)
				}
				w.WriteHeader(http.StatusTooManyRequests)
				_, _ = io.WriteString(w, c.body)
			}))
			defer srv.Close()
			cl, err := NewClient(ClientConfig{BaseURL: srv.URL, DisableRouting: true, MaxRetryWait: maxWait})
			if err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			n, err := cl.Ingest(context.Background(), "f", []Frame{{Time: start, CSI: make([]float64, 64)}})
			if waited := time.Since(start); err != nil || n != 1 || waited < maxWait {
				t.Fatalf("accepted %d (%v) after %v; want 1 after at least %v", n, err, waited, maxWait)
			}
		})
	}
}
