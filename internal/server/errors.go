package server

import (
	"net/http"
	"strconv"
	"time"
)

// Error codes of the /v1 surface. Every non-2xx response body is one
// ErrorBody carrying exactly one of these codes; HTTP status codes group
// them coarsely (400 bad request, 404 not found, 429 pressure, 5xx server),
// the code names the precise cause. Codes are API: clients switch on them,
// so renaming one is a breaking change.
const (
	CodeInvalidFeedID    = "invalid_feed_id"   // 400: feed id fails validFeedID
	CodeMalformedRequest = "malformed_request" // 400: body is not the documented JSON
	CodeBadFrame         = "bad_frame"         // 400: a frame in the batch fails validation
	CodeEmptyBatch       = "empty_batch"       // 400: ingest with zero frames
	CodeUnknownFeed      = "unknown_feed"      // 404: feed is not registered here
	CodeNoCluster        = "no_cluster"        // 404: node runs without cluster config
	CodeNoLog            = "no_log"            // 404: durability off, or no log for the feed
	CodeNoModel          = "no_model"          // 404: node serves no model artifact
	CodeUnknownModel     = "unknown_model"     // 404: no installed model version under that id
	CodeModelRejected    = "model_rejected"    // 422: candidate bundle failed the install gate
	CodeFeedEnded        = "feed_ended"        // 410: feed finished; stream unavailable
	CodeFeedActive       = "feed_active"       // 409: log export or import refused: the feed is live or may change
	CodeScorerMismatch   = "scorer_mismatch"   // 409: hand-off archive scored by another model, precision, kernel or setting
	CodeStaleEpoch       = "stale_epoch"       // 409: map epoch <= the installed one
	CodeRateLimited      = "rate_limited"      // 429: per-feed token bucket exhausted
	CodeFeedLimit        = "feed_limit"        // 503: MaxFeeds reached
	CodeDraining         = "draining"          // 503: node is draining; no new work
	CodeMisplacedFeed    = "misplaced_feed"    // 307: another node owns this feed
	CodeLogError         = "log_error"         // 500: durable append failed mid-batch
	CodeDrainInterrupted = "drain_interrupted" // 500: drain cancelled before finishing
	CodeTimeout          = "timeout"           // 503: RequestTimeout elapsed
	CodeInternal         = "internal"          // 500: anything else
)

// ErrorBody is the one JSON error envelope every /v1 handler emits — there
// are no plain-text or ad-hoc error bodies on the surface. RetryAfterMS is
// set exactly when the Retry-After header is (429 and log_error responses);
// Accepted/Rejected appear only on partially-accepted ingest batches, so a
// client can retry precisely the rejected tail.
type ErrorBody struct {
	Code         string `json:"code"`
	Message      string `json:"message"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
	Accepted     int    `json:"accepted,omitempty"`
	Rejected     int    `json:"rejected,omitempty"`
}

// writeError emits the uniform error envelope. It is the single error path
// of every handler.
func writeError(w http.ResponseWriter, status int, code, message string) {
	writeJSON(w, status, ErrorBody{Code: code, Message: message})
}

// writeErrorRetry emits the envelope for a partially-accepted ingest batch:
// the Retry-After header (whole seconds, ceiled) plus the millisecond-exact
// retry_after_ms field, and the accepted/rejected split.
func writeErrorRetry(w http.ResponseWriter, status int, code, message string, retry time.Duration, accepted, rejected int) {
	secs := int(retry / time.Second)
	if retry%time.Second != 0 || secs == 0 {
		secs++
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeJSON(w, status, ErrorBody{
		Code:         code,
		Message:      message,
		RetryAfterMS: retry.Milliseconds(),
		Accepted:     accepted,
		Rejected:     rejected,
	})
}
