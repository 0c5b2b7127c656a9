package occupancy

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
)

// Wire types of the /v1 surface, re-exported so client code never imports
// internal packages. They are aliases, not copies: the client and the server
// marshal the same bytes by construction.
type (
	// Frame is one CSI frame as ingested over the wire.
	Frame = server.FrameJSON
	// FeedInfo describes a feed in registration and listing responses.
	FeedInfo = server.FeedInfo
	// Decision is one occupancy decision event (a stream line or the
	// /occupancy body).
	Decision = server.Event
	// ErrorBody is the uniform JSON error envelope of every non-2xx
	// response.
	ErrorBody = server.ErrorBody
	// ClusterInfo is the GET /v1/cluster body.
	ClusterInfo = server.ClusterInfo
	// ModelInfo describes one installed model version.
	ModelInfo = server.ModelInfo
	// ModelsResponse is the versioned-model listing body.
	ModelsResponse = server.ModelsResponse
	// DriftStatus is a feed's drift-detector state on the listing surface.
	DriftStatus = server.DriftStatus
)

// APIError is any non-2xx answer from the service, carrying the HTTP status
// and the decoded error envelope. Callers switch on Code — the status only
// groups causes coarsely.
type APIError struct {
	Status int
	ErrorBody
}

// Error renders the failure for logs.
func (e *APIError) Error() string {
	return fmt.Sprintf("occupancy: server answered %d %s: %s", e.Status, e.Code, e.Message)
}

// IsCode reports whether err is an APIError carrying the given envelope code.
func IsCode(err error, code string) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.Code == code
}

// ClientConfig configures Client. Only BaseURL is required.
type ClientConfig struct {
	// BaseURL is any node of the service — a standalone server, a cluster
	// member, or a thin router. No trailing slash required.
	BaseURL string
	// HTTPClient, when non-nil, replaces http.DefaultClient. Streaming
	// calls need a client without an overall Timeout.
	HTTPClient *http.Client
	// MaxRetries bounds consecutive no-progress retries of a pressure
	// response (429, 500 log_error, or 503 draining) before Ingest gives
	// up (default 4). Retries honor Retry-After / retry_after_ms; a batch
	// that makes partial progress resets the budget.
	MaxRetries int
	// MaxRetryWait caps one Retry-After sleep (default 5s).
	MaxRetryWait time.Duration
	// DisableRouting pins every request to BaseURL: the client never
	// fetches the shard map and relies on server-side redirects. The
	// default (false) routes per-feed requests to the owning node once a
	// shard map is available.
	DisableRouting bool
}

// Validate reports whether the client configuration is usable.
func (c ClientConfig) Validate() error {
	if c.BaseURL == "" {
		return errors.New("occupancy: ClientConfig.BaseURL is required")
	}
	u, err := url.Parse(c.BaseURL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return fmt.Errorf("occupancy: unusable BaseURL %q (want e.g. http://host:port)", c.BaseURL)
	}
	if c.MaxRetries < 0 {
		return fmt.Errorf("occupancy: negative MaxRetries %d", c.MaxRetries)
	}
	if c.MaxRetryWait < 0 {
		return fmt.Errorf("occupancy: negative MaxRetryWait %v", c.MaxRetryWait)
	}
	return nil
}

// maxIngestBatch bounds one ingest request the client sends; larger slices
// are chunked. Well under the server's request-body cap at wire size.
const maxIngestBatch = 512

// Client is the typed interface to the /v1 surface. It is safe for
// concurrent use.
//
// Against a sharded cluster the client is shard-map aware: on first use it
// fetches the map from BaseURL and sends each feed's requests straight to
// the owning node (refresh with RefreshShardMap after a topology change). A
// standalone server, or DisableRouting, pins everything to BaseURL; requests
// that still land on a non-owner are healed by the server's 307, which the
// client follows.
type Client struct {
	cfg  ClientConfig
	base string
	hc   *http.Client

	mu      sync.Mutex
	probed  bool // cluster probe done (or routing disabled)
	ring    *cluster.Ring
	mapInfo ShardMap
}

// NewClient builds a Client. The configuration must Validate.
func NewClient(cfg ClientConfig) (*Client, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 4
	}
	if cfg.MaxRetryWait == 0 {
		cfg.MaxRetryWait = 5 * time.Second
	}
	hc := cfg.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Client{
		cfg:    cfg,
		base:   strings.TrimSuffix(cfg.BaseURL, "/"),
		hc:     hc,
		probed: cfg.DisableRouting,
	}, nil
}

// At returns a derived client pinned to the given node address (no shard-map
// routing), sharing the HTTP client and retry policy. Use it to address one
// specific node — drain it, list its feeds — regardless of placement.
func (c *Client) At(addr string) *Client {
	return &Client{
		cfg:    c.cfg,
		base:   strings.TrimSuffix(addr, "/"),
		hc:     c.hc,
		probed: true,
	}
}

// ShardMap returns the shard map the client currently routes by (zero Map
// when none is known).
func (c *Client) ShardMap() ShardMap {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mapInfo
}

// RefreshShardMap fetches BaseURL's cluster info and routes by its map from
// now on. Against a standalone server (no_cluster) it clears routing and
// returns nil.
func (c *Client) RefreshShardMap(ctx context.Context) error {
	info, err := c.Cluster(ctx)
	if err != nil {
		if IsCode(err, server.CodeNoCluster) {
			c.mu.Lock()
			c.probed, c.ring, c.mapInfo = true, nil, ShardMap{}
			c.mu.Unlock()
			return nil
		}
		return err
	}
	return c.installMap(info.Map)
}

// installMap compiles and installs a map for routing (an empty map clears
// routing).
func (c *Client) installMap(m ShardMap) error {
	var ring *cluster.Ring
	if !m.Empty() {
		r, err := cluster.NewRing(m)
		if err != nil {
			return err
		}
		ring = r
	}
	c.mu.Lock()
	c.probed, c.ring, c.mapInfo = true, ring, m
	c.mu.Unlock()
	return nil
}

// endpointFor resolves the base URL to send a feed's request to, probing the
// cluster once if needed. Any probe failure degrades to BaseURL — the server
// side still heals misplacement.
func (c *Client) endpointFor(ctx context.Context, feed string) string {
	c.mu.Lock()
	probed, ring := c.probed, c.ring
	c.mu.Unlock()
	if !probed {
		_ = c.RefreshShardMap(ctx)
		c.mu.Lock()
		ring = c.ring
		c.mu.Unlock()
	}
	if ring != nil {
		if owner, ok := ring.Owner(feed); ok {
			return strings.TrimSuffix(owner.Addr, "/")
		}
	}
	return c.base
}

// do performs one JSON round trip: marshal in (nil: no body), decode a 2xx
// answer into out (nil or 204: discard), turn any other answer into an
// *APIError. 307s are followed transparently (the request body is replayed).
func (c *Client) do(ctx context.Context, method, base, path string, in, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, base+path, nil)
	if err != nil {
		return err
	}
	if in != nil {
		body, err := encodeBody(in)
		if err != nil {
			return err
		}
		req.Body, req.ContentLength = body, body.Size()
		req.GetBody = func() (io.ReadCloser, error) { // a followed 307 sends the body again
			return encodeBody(in) // cannot fail: it just succeeded
		}
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		_ = resp.Body.Close()
	}()
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		if out == nil || resp.StatusCode == http.StatusNoContent {
			return nil
		}
		return json.NewDecoder(resp.Body).Decode(out)
	}
	return decodeAPIError(resp)
}

// requestBody is an encoded request body in a pooled buffer. The transport
// closes it once written, possibly after Do has returned, so the buffer
// goes back to the pool on that Close and never sooner.
type requestBody struct {
	bytes.Reader
	buf    *[]byte
	closed atomic.Bool
}

var requestPool = sync.Pool{New: func() any { return new([]byte) }}

// encodeBody encodes in: an ingest batch by server.AppendIngestBody,
// anything else by json.Marshal.
func encodeBody(in any) (*requestBody, error) {
	buf := requestPool.Get().(*[]byte)
	var err error
	if r, ok := in.(server.IngestRequest); ok {
		*buf, err = server.AppendIngestBody((*buf)[:0], r.Frames)
	} else {
		*buf, err = json.Marshal(in)
	}
	if err != nil {
		return nil, err
	}
	return &requestBody{Reader: *bytes.NewReader(*buf), buf: buf}, nil
}

func (rb *requestBody) Close() error {
	// A 512-frame chunk is ~720 KB; anything larger is not kept.
	if rb.closed.CompareAndSwap(false, true) && cap(*rb.buf) <= 1<<20 {
		requestPool.Put(rb.buf)
	}
	return nil
}

// decodeAPIError turns a non-2xx response into an *APIError, tolerating
// non-envelope bodies (proxies, panics) by synthesizing one.
func decodeAPIError(resp *http.Response) error {
	ae := &APIError{Status: resp.StatusCode}
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err := json.Unmarshal(raw, &ae.ErrorBody); err != nil || ae.Code == "" {
		ae.Code = server.CodeInternal
		ae.Message = strings.TrimSpace(string(raw))
		if ae.Message == "" {
			ae.Message = resp.Status
		}
	}
	if ae.RetryAfterMS == 0 {
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
			ae.RetryAfterMS = min(int64(secs), math.MaxInt64/1000) * 1000
		}
	}
	return ae
}

// RegisterFeed registers (or finds) a feed on its owning node.
func (c *Client) RegisterFeed(ctx context.Context, id string) (FeedInfo, error) {
	var fi FeedInfo
	err := c.do(ctx, http.MethodPut, c.endpointFor(ctx, id), "/v1/feeds/"+url.PathEscape(id), nil, &fi)
	return fi, err
}

// CloseFeed closes a feed; every frame it accepted already has its decision.
func (c *Client) CloseFeed(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, c.endpointFor(ctx, id), "/v1/feeds/"+url.PathEscape(id), nil, nil)
}

// ListFeeds lists the feeds live on the node at BaseURL (listing is
// per-node, not cluster-wide).
func (c *Client) ListFeeds(ctx context.Context) ([]FeedInfo, error) {
	var out struct {
		Feeds []FeedInfo `json:"feeds"`
	}
	err := c.do(ctx, http.MethodGet, c.base, "/v1/feeds", nil, &out)
	return out.Feeds, err
}

// Ingest sends frames to the feed, chunking large slices and riding out
// pressure: a partially-accepted batch (429 rate_limited, or 500
// log_error) advances past the accepted prefix, waits the server's
// retry_after_ms, and retries the rest. It returns the number of frames
// accepted — equal to len(frames) unless the retry budget (MaxRetries
// consecutive attempts with zero progress) or ctx ran out, in which case the
// error is the last pressure answer.
func (c *Client) Ingest(ctx context.Context, id string, frames []Frame) (int, error) {
	ep := c.endpointFor(ctx, id)
	path := "/v1/feeds/" + url.PathEscape(id) + "/frames"
	accepted := 0
	stalls := 0
	for accepted < len(frames) {
		chunk := frames[accepted:]
		if len(chunk) > maxIngestBatch {
			chunk = chunk[:maxIngestBatch]
		}
		var ok server.IngestResponse
		err := c.do(ctx, http.MethodPost, ep, path, server.IngestRequest{Frames: chunk}, &ok)
		if err == nil {
			accepted += ok.Accepted
			stalls = 0
			continue
		}
		var ae *APIError
		if !errors.As(err, &ae) || !retryableCode(ae.Code) {
			return accepted, err
		}
		accepted += ae.Accepted
		if ae.Accepted > 0 {
			stalls = 0
		} else {
			stalls++
			if stalls > c.cfg.MaxRetries {
				return accepted, err
			}
		}
		if err := c.sleep(ctx, ae.RetryAfterMS); err != nil {
			return accepted, err
		}
		if ae.Code == server.CodeDraining {
			// The topology is moving under us. Re-resolve the feed's owner
			// before the retry so the remainder lands where the feed now
			// lives.
			_ = c.RefreshShardMap(ctx)
			ep = c.endpointFor(ctx, id)
		}
	}
	return accepted, nil
}

// retryableCode reports whether an envelope code means "back off and retry
// the rest of the batch". Pressure codes (429, log_error) mean the same
// node will accept soon; the transitional 503 draining means another node
// will — Ingest refreshes the shard map before that retry.
func retryableCode(code string) bool {
	switch code {
	case server.CodeRateLimited, server.CodeLogError, server.CodeDraining:
		return true
	}
	return false
}

// sleep waits the server-suggested backoff (capped at MaxRetryWait), or
// until ctx is done. The cap applies in milliseconds, before a suggestion
// too large for a time.Duration could wrap negative.
func (c *Client) sleep(ctx context.Context, ms int64) error {
	d := c.cfg.MaxRetryWait
	if ms <= 0 {
		d = min(d, 50*time.Millisecond)
	} else if ms <= d.Milliseconds() {
		d = time.Duration(ms) * time.Millisecond
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Occupancy returns the feed's latest decision; ok is false when the feed
// has not decided yet (204).
func (c *Client) Occupancy(ctx context.Context, id string) (Decision, bool, error) {
	ep := c.endpointFor(ctx, id)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ep+"/v1/feeds/"+url.PathEscape(id)+"/occupancy", nil)
	if err != nil {
		return Decision{}, false, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return Decision{}, false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNoContent:
		return Decision{}, false, nil
	case http.StatusOK:
		var d Decision
		if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
			return Decision{}, false, err
		}
		return d, true, nil
	}
	return Decision{}, false, decodeAPIError(resp)
}

// DecisionStream is a live NDJSON decision subscription. Next blocks for the
// next decision; it returns io.EOF when the feed ends and the stream closes
// cleanly. Close releases the connection.
type DecisionStream struct {
	body    io.ReadCloser
	br      *bufio.Reader
	version string        // the last decision's ModelVersion, reused while it repeats
	dec     *json.Decoder // set once a line was not server.ParseEventLine's
}

// Next returns the next decision on the stream: a line server.ParseEventLine
// takes, or else, from that line on, whatever encoding/json decodes.
func (s *DecisionStream) Next() (Decision, error) {
	if s.dec == nil {
		line, err := s.br.ReadSlice('\n') // a line it takes ends in '\n': err is nil
		if d, ok := server.ParseEventLine(line, s.version); ok {
			s.version = d.ModelVersion
			return d, nil
		}
		if len(line) == 0 {
			return Decision{}, err
		}
		s.dec = json.NewDecoder(io.MultiReader(bytes.NewReader(bytes.Clone(line)), s.br))
	}
	var d Decision
	if err := s.dec.Decode(&d); err != nil {
		return Decision{}, err
	}
	return d, nil
}

// Close tears the subscription down.
func (s *DecisionStream) Close() error { return s.body.Close() }

// StreamDecisions subscribes to the feed's decision stream — state
// transitions by default, every decision with all=true. Cancel ctx or Close
// the stream to unsubscribe. The configured HTTP client must not enforce an
// overall Timeout, or the stream dies with it.
func (c *Client) StreamDecisions(ctx context.Context, id string, all bool) (*DecisionStream, error) {
	ep := c.endpointFor(ctx, id)
	u := ep + "/v1/feeds/" + url.PathEscape(id) + "/stream"
	if all {
		u += "?all=1"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		return nil, decodeAPIError(resp)
	}
	return &DecisionStream{body: resp.Body, br: bufio.NewReader(resp.Body)}, nil
}

// Cluster returns the node's cluster info (identity, shard map, model hash).
func (c *Client) Cluster(ctx context.Context) (ClusterInfo, error) {
	var info ClusterInfo
	err := c.do(ctx, http.MethodGet, c.base, "/v1/cluster", nil, &info)
	return info, err
}

// UpdateShardMap installs a strictly-newer shard map on the node at BaseURL
// and routes by it from now on. Installing a topology change on a whole
// cluster means calling this At() every member.
func (c *Client) UpdateShardMap(ctx context.Context, m ShardMap) error {
	if err := c.do(ctx, http.MethodPut, c.base, "/v1/cluster", m, nil); err != nil {
		return err
	}
	return c.installMap(m)
}

// DrainNode drains the node at BaseURL: new work is rejected immediately and
// the call blocks until every feed is closed behind its in-flight batch. After
// a clean return the node's feed logs are complete and quiescent — safe hand-off
// sources.
func (c *Client) DrainNode(ctx context.Context) error {
	return c.do(ctx, http.MethodPost, c.base, "/v1/cluster/drain", nil, nil)
}

// HandoffFeed moves a feed from fromAddr, a drained node, onto its owner on
// the client's shard map: the old node's GET .../log streams the feed's log
// directory — sealed segments and snapshot, as they lie on disk — straight
// into the owner's PUT .../log, which installs it and opens the feed exactly
// as a restart would: the snapshot restored, nothing re-scored. It returns
// the feed as the owner now holds it and the archive bytes moved. The body
// streams through and cannot be sent twice, so an answer from a node that
// does not own the feed (307) is an error: refresh the shard map and retry.
func (c *Client) HandoffFeed(ctx context.Context, id, fromAddr string) (FeedInfo, int64, error) {
	path := "/v1/feeds/" + url.PathEscape(id) + "/log"
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, strings.TrimSuffix(fromAddr, "/")+path, nil)
	if err != nil {
		return FeedInfo{}, 0, err
	}
	src, err := c.hc.Do(req)
	if err != nil {
		return FeedInfo{}, 0, err
	}
	defer src.Body.Close()
	if src.StatusCode != http.StatusOK {
		return FeedInfo{}, 0, decodeAPIError(src)
	}
	body := &countingReader{r: src.Body}
	req, err = http.NewRequestWithContext(ctx, http.MethodPut, c.endpointFor(ctx, id)+path, body)
	if err != nil {
		return FeedInfo{}, 0, err
	}
	req.Header.Set("Content-Type", "application/x-tar")
	resp, err := c.hc.Do(req)
	if err != nil {
		return FeedInfo{}, body.n.Load(), err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return FeedInfo{}, body.n.Load(), decodeAPIError(resp)
	}
	var fi FeedInfo
	err = json.NewDecoder(resp.Body).Decode(&fi)
	return fi, body.n.Load(), err
}

// countingReader counts the bytes read through it; the transport reads a
// request body on a goroutine of its own.
type countingReader struct {
	r io.Reader
	n atomic.Int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// FetchModel downloads the bundle of the node's active model version: it
// resolves the active id on GET /v1/models, fetches that version, and
// checks the bytes against the id — versions are content-addressed, so the
// id is the bundle's SHA-256.
func (c *Client) FetchModel(ctx context.Context) ([]byte, error) {
	ms, err := c.Models(ctx)
	if err != nil {
		return nil, err
	}
	if ms.Active == "" {
		return nil, &APIError{Status: http.StatusNotFound, ErrorBody: ErrorBody{
			Code: server.CodeNoModel, Message: "node has no active model version"}}
	}
	blob, err := c.FetchModelVersion(ctx, ms.Active)
	if err != nil {
		return nil, err
	}
	if sum := sha256.Sum256(blob); hex.EncodeToString(sum[:]) != ms.Active {
		return nil, fmt.Errorf("occupancy: bundle for model %.12s… does not hash to its id", ms.Active)
	}
	return blob, nil
}

// Models lists the node's installed model versions and which one is
// active.
func (c *Client) Models(ctx context.Context) (ModelsResponse, error) {
	var out ModelsResponse
	err := c.do(ctx, http.MethodGet, c.base, "/v1/models", nil, &out)
	return out, err
}

// InstallModel uploads a candidate detector bundle to the node at BaseURL.
// The server gates the bundle (parse, feature-set match, divergence at the
// serving precision) before it becomes an installed version; a rejected
// candidate answers 422 model_rejected and is never installed. Identical
// bytes are deduplicated onto the existing version. Installing does not
// activate — follow with ActivateModel.
func (c *Client) InstallModel(ctx context.Context, bundle []byte) (ModelInfo, error) {
	var info ModelInfo
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/models", bytes.NewReader(bundle))
	if err != nil {
		return info, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := c.hc.Do(req)
	if err != nil {
		return info, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
		return info, decodeAPIError(resp)
	}
	err = json.NewDecoder(resp.Body).Decode(&info)
	return info, err
}

// ActivateModel atomically swaps the node's active model version. The swap
// is zero-downtime: no in-flight frame is lost, and every decision carries
// the version (Decision.ModelVersion) that actually scored it.
func (c *Client) ActivateModel(ctx context.Context, version string) error {
	return c.do(ctx, http.MethodPost, c.base, "/v1/models/activate",
		server.ModelActivateRequest{ID: version}, nil)
}

// PinFeedModel pins a feed to an installed model version: the feed keeps
// serving that version through activations until UnpinFeedModel — A/B
// serving on the versioned-model plumbing. Routed to the feed's owner.
func (c *Client) PinFeedModel(ctx context.Context, feed, version string) error {
	return c.do(ctx, http.MethodPut, c.endpointFor(ctx, feed),
		"/v1/feeds/"+url.PathEscape(feed)+"/model", server.ModelPinRequest{ID: version}, nil)
}

// UnpinFeedModel removes a feed's version pin (idempotent); the feed
// returns to the active version.
func (c *Client) UnpinFeedModel(ctx context.Context, feed string) error {
	return c.do(ctx, http.MethodDelete, c.endpointFor(ctx, feed),
		"/v1/feeds/"+url.PathEscape(feed)+"/model", nil, nil)
}

// FetchModelVersion downloads one installed version's bundle by id.
func (c *Client) FetchModelVersion(ctx context.Context, version string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/models/"+url.PathEscape(version), nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeAPIError(resp)
	}
	return io.ReadAll(resp.Body)
}

// Healthy reports process liveness of the node at BaseURL.
func (c *Client) Healthy(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, c.base, "/healthz", nil, nil)
}

// Ready reports whether the node at BaseURL accepts new work (draining
// answers an error).
func (c *Client) Ready(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, c.base, "/readyz", nil, nil)
}
