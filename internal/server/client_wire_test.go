package server_test

import (
	"context"
	"encoding/json"
	"hash/fnv"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"repro/internal/infer"
	"repro/internal/server"
	"repro/pkg/occupancy"
)

// roundTripFunc is an in-memory transport.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestClientIngestBodyGolden pins the bytes occupancy.Client.Ingest puts on
// the wire for the golden batch to the constant TestIngestWireGolden holds
// json.Marshal of the same batch to.
func TestClientIngestBodyGolden(t *testing.T) {
	var body []byte
	hc := &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
		var err error
		if body, err = io.ReadAll(r.Body); err != nil {
			return nil, err
		}
		r.Body.Close()
		if r.ContentLength != int64(len(body)) {
			t.Errorf("Content-Length %d for a %d-byte body", r.ContentLength, len(body))
		}
		return &http.Response{
			StatusCode: http.StatusAccepted,
			Header:     http.Header{"Content-Type": {"application/json"}},
			Body:       io.NopCloser(strings.NewReader(`{"accepted":` + strconv.Itoa(len(server.WireGoldenBatch())) + "}\n")),
			Request:    r,
		}, nil
	})}
	cl, err := occupancy.NewClient(occupancy.ClientConfig{BaseURL: "http://wire.test", HTTPClient: hc, DisableRouting: true})
	if err != nil {
		t.Fatal(err)
	}
	batch := server.WireGoldenBatch()
	if n, err := cl.Ingest(context.Background(), "g", batch); err != nil || n != len(batch) {
		t.Fatalf("ingest accepted %d of %d: %v", n, len(batch), err)
	}
	h := fnv.New64a()
	h.Write(body)
	if got := h.Sum64(); got != server.WireBodyGolden {
		t.Errorf("client ingest body hash %#016x, want %#016x:\n%s", got, server.WireBodyGolden, body)
	}
}

// TestClientIngestBodyReplays: a request body travels in the client's pooled
// buffer, which goes back to the pool once the transport closes the body. A
// 307 replays json.Marshal's bytes and Content-Length to the new location.
func TestClientIngestBodyReplays(t *testing.T) {
	var batch []occupancy.Frame
	for len(batch) < 300 {
		batch = append(batch, server.WireGoldenBatch()...)
	}
	want, err := json.Marshal(server.IngestRequest{Frames: batch})
	if err != nil {
		t.Fatal(err)
	}
	var hosts []string
	hc := &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
		body, err := io.ReadAll(r.Body)
		r.Body.Close()
		if err != nil {
			return nil, err
		}
		if string(body) != string(want) || r.ContentLength != int64(len(want)) {
			t.Errorf("%s: %d-byte body (Content-Length %d) differs from json.Marshal's %d bytes", r.URL.Host, len(body), r.ContentLength, len(want))
		}
		hosts = append(hosts, r.URL.Host)
		resp := &http.Response{StatusCode: http.StatusAccepted, Header: http.Header{}, Request: r,
			Body: io.NopCloser(strings.NewReader(`{"accepted":` + strconv.Itoa(len(batch)) + "}\n"))}
		if len(hosts) == 1 {
			resp.StatusCode, resp.Body = http.StatusTemporaryRedirect, http.NoBody
			resp.Header.Set("Location", "http://owner.test"+r.URL.Path)
		}
		return resp, nil
	})}
	cl, err := occupancy.NewClient(occupancy.ClientConfig{BaseURL: "http://wire.test", HTTPClient: hc, DisableRouting: true})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := cl.Ingest(context.Background(), "g", batch); err != nil || n != len(batch) {
		t.Fatalf("ingest accepted %d of %d: %v", n, len(batch), err)
	}
	if len(hosts) != 2 || hosts[1] != "owner.test" {
		t.Fatalf("requests went to %v, want wire.test then owner.test", hosts)
	}
}

// TestTrailingBytesRefused: a JSON body is one value. Two concatenated
// ingest batches, or a batch followed by garbage, answer 400
// malformed_request and accept nothing, where json.Decoder alone would take
// the first value and drop the rest; so do the other JSON-bodied routes.
// Trailing whitespace is fine.
func TestTrailingBytesRefused(t *testing.T) {
	reg := infer.NewRegistry(nil)
	_, ts, _ := newTestServer(t, func(c *server.Config) {
		c.Models = reg
		c.BuildModel = parseConstModel
	})
	n0 := newClusterNode(t, "n0", nil)
	v := installModel(t, ts.URL, []byte("p=0.90"), http.StatusCreated)
	batch, err := json.Marshal(server.IngestRequest{Frames: durableFrames(1, 0)})
	if err != nil {
		t.Fatal(err)
	}
	shardMap, err := json.Marshal(occupancy.ShardMap{Epoch: 1, Nodes: []occupancy.ClusterNode{{ID: "n0", Addr: n0.ts.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	id := `{"id":"` + v.ID + `"}`
	if code, _, _ := doReq(t, http.MethodPut, ts.URL+"/v1/feeds/room", nil); code != http.StatusCreated {
		t.Fatal("register")
	}
	post := func(method, url, body string) (int, string) {
		req, err := http.NewRequest(method, url, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(raw)
	}
	for _, c := range []struct{ method, url, body string }{
		{http.MethodPost, ts.URL + "/v1/feeds/room/frames", string(batch) + string(batch)},
		{http.MethodPost, ts.URL + "/v1/feeds/room/frames", string(batch) + "garbage"},
		{http.MethodPost, ts.URL + "/v1/feeds/room/frames", string(batch) + " ]"},
		{http.MethodPost, ts.URL + "/v1/models/activate", id + id},
		{http.MethodPut, ts.URL + "/v1/feeds/room/model", id + " 1"},
		{http.MethodPut, n0.ts.URL + "/v1/cluster", string(shardMap) + "{}"},
	} {
		code, body := post(c.method, c.url, c.body)
		if code != http.StatusBadRequest || !strings.Contains(body, `"code":"`+server.CodeMalformedRequest+`"`) {
			t.Errorf("%s %s with trailing bytes: %d %s", c.method, c.url, code, body)
		}
	}
	if code, body, _ := doReq(t, http.MethodGet, ts.URL+"/v1/feeds/room/occupancy", nil); code != http.StatusNoContent {
		t.Fatalf("a refused batch left a decision: %d %s", code, body)
	}
	if code, body := post(http.MethodPost, ts.URL+"/v1/feeds/room/frames", string(batch)+" \r\n\t"); code != http.StatusAccepted {
		t.Fatalf("trailing whitespace refused: %d %s", code, body)
	}
	if code, body := post(http.MethodPut, n0.ts.URL+"/v1/cluster", string(shardMap)+"\n"); code != http.StatusOK {
		t.Fatalf("shard map with trailing newline refused: %d %s", code, body)
	}
}
