package occupancy

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"unsafe"
)

// TestDecisionStreamLines reads a stream whose first lines are canonical and
// whose later ones are not: consecutive canonical decisions share Mode's and
// ModelVersion's bytes, and from the first other line on the rest decodes
// through encoding/json, a value spanning lines and one without a final
// newline included.
func TestDecisionStreamLines(t *testing.T) {
	ver := strings.Repeat("5e", 32)
	line := func(seq, tail string) string {
		return `{"seq":` + seq + `,"time":"2022-01-05T09:00:00.05Z","p":0.75,"pred":1,"state":1,"flipped":false,"mode":"primary","model_version":"` + ver + `"` + tail
	}
	body := line("0", "}\n") + line("1", "}\n") +
		line("2", ",\n\"m\\u006fde\":\"held\"}\n") + line("3", "}\n") + line("4", "}")
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = io.WriteString(w, body)
	}))
	defer srv.Close()
	cl, err := NewClient(ClientConfig{BaseURL: srv.URL, DisableRouting: true})
	if err != nil {
		t.Fatal(err)
	}
	st, err := cl.StreamDecisions(context.Background(), "f", true)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var got []Decision
	for {
		d, err := st.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, d)
	}
	if len(got) != 5 {
		t.Fatalf("read %d decisions, want 5", len(got))
	}
	for i, d := range got {
		mode := "primary"
		if i == 2 {
			mode = "held"
		}
		if d.Seq != int64(i) || d.P != 0.75 || d.Mode != mode || d.ModelVersion != ver || d.Time.Nanosecond() != 50e6 {
			t.Fatalf("decision %d: %+v", i, d)
		}
	}
	a, b := got[0], got[1]
	if unsafe.StringData(a.Mode) != unsafe.StringData(b.Mode) || unsafe.StringData(a.ModelVersion) != unsafe.StringData(b.ModelVersion) {
		t.Fatal("consecutive decisions hold Mode and ModelVersion twice")
	}
}
