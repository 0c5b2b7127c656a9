// Package framelog is the durability substrate under the serving layer: a
// per-feed append-only binary write-ahead log of CSI frames with crash
// recovery and bit-identical replay.
//
// Every layer above this one is deterministic — a feed's decision sequence
// is a pure function of its accepted frame sequence (stream.Process never
// reads the clock or the scheduler) — so logging the accepted frames is
// logging the state a crash would otherwise destroy:
//
//   - records are length-prefixed and CRC32-guarded, so a torn write or a
//     flipped bit is detected at read time, never silently replayed;
//   - segments rotate at a size bound and old segments can be retired under
//     a retention cap, so one feed cannot grow a file without bound;
//   - the fsync policy (Config.Fsync) sizes the power-loss window; a
//     SIGKILL'd process loses nothing under any policy, because appends go
//     straight to the kernel, never a user-space buffer;
//   - Open repairs a torn tail by truncating the last segment to its final
//     valid record, while corruption anywhere *before* the tail —
//     acknowledged data — is an error, never a silent drop.
//
// Beside the segments each feed keeps one snapshot of its decision state,
// written when a segment seals and when the feed closes and anchored to the
// record it covers up to, so a restart restores that state and replays only
// the records after it (OpenReplay's anchor). Every durable file operation —
// the snapshot's envelope and atomic replace, the directory syncs — goes
// through internal/atomicfile. See DESIGN.md §13 for the formats and the
// measured costs.
package framelog

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// Fsync policies. FsyncAlways syncs after every append; FsyncInterval syncs
// when FsyncInterval has elapsed since the last sync (and always on rotate,
// flush and close); FsyncOff never calls sync explicitly.
const (
	FsyncAlways   = "always"
	FsyncInterval = "interval"
	FsyncOff      = "off"
)

// Config parametrises a frame log. Dir is required (an empty Dir means "no
// durability" to callers embedding this config; Validate accepts it so the
// zero value stays valid, but Open requires it).
type Config struct {
	// Dir is the log root; each feed gets Dir/<feedID>/ with numbered
	// segment files. Empty disables durability for embedding configs.
	Dir string
	// Fsync selects the sync policy: "always", "interval" (default) or
	// "off".
	Fsync string
	// Interval is the maximum time between syncs under the "interval"
	// policy (default 100ms). The deadline is checked on the append path,
	// so it bounds the power-loss window only while appends keep arriving:
	// the trailing frames of a burst stay unsynced until the next append,
	// rotation, Flush or Close. Ignored under the other policies.
	Interval time.Duration
	// SegmentMaxBytes rotates the active segment once it reaches this size
	// (default 64 MiB).
	SegmentMaxBytes int64
	// MaxSegments, when > 0, bounds retained segments per feed: after a
	// rotation the oldest segments beyond the cap are deleted. A snapshot
	// is written on every seal, so recovery still resumes from the full
	// history's state and replays only the records after it; without a
	// usable snapshot it replays the retained suffix from a fresh state,
	// bit-identical to an offline replay of that suffix but not of the full
	// history. 0 retains everything (the default).
	MaxSegments int
}

// Validate reports whether the configuration is usable. The zero value is
// valid (it means "durability disabled" to embedders).
func (c Config) Validate() error {
	switch c.Fsync {
	case "", FsyncAlways, FsyncInterval, FsyncOff:
	default:
		return fmt.Errorf("framelog: unknown fsync policy %q (want %q, %q or %q)",
			c.Fsync, FsyncAlways, FsyncInterval, FsyncOff)
	}
	if c.Interval < 0 {
		return fmt.Errorf("framelog: negative fsync interval %v", c.Interval)
	}
	if c.SegmentMaxBytes < 0 {
		return fmt.Errorf("framelog: negative SegmentMaxBytes %d", c.SegmentMaxBytes)
	}
	if c.MaxSegments < 0 {
		return fmt.Errorf("framelog: negative MaxSegments %d", c.MaxSegments)
	}
	return nil
}

// Enabled reports whether the config asks for durability at all.
func (c Config) Enabled() bool { return c.Dir != "" }

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Fsync == "" {
		c.Fsync = FsyncInterval
	}
	if c.Interval == 0 {
		c.Interval = 100 * time.Millisecond
	}
	if c.SegmentMaxBytes == 0 {
		c.SegmentMaxBytes = 64 << 20
	}
	return c
}

// metrics are the log's obs instruments; all nil (no-op) without an
// Observer, per the repo-wide convention.
type metrics struct {
	appends      *obs.Counter
	appendErrors *obs.Counter
	bytes        *obs.Counter
	fsyncs       *obs.Counter
	rotations    *obs.Counter
	retired      *obs.Counter
	recovered    *obs.Counter
	tornTails    *obs.Counter
	truncated    *obs.Counter
	appendLat    *obs.Histogram
	fsyncLat     *obs.Histogram
}

func newMetrics(o obs.Observer) metrics {
	if o == nil {
		return metrics{}
	}
	return metrics{
		appends:      o.Counter("framelog_appends_total", "frames appended to the log"),
		appendErrors: o.Counter("framelog_append_errors_total", "appends that failed with an I/O error"),
		bytes:        o.Counter("framelog_appended_bytes_total", "bytes appended to the log"),
		fsyncs:       o.Counter("framelog_fsyncs_total", "explicit fsyncs issued"),
		rotations:    o.Counter("framelog_segments_rotated_total", "segment rotations"),
		retired:      o.Counter("framelog_segments_retired_total", "segments deleted by the retention cap"),
		recovered:    o.Counter("framelog_recovered_frames_total", "frames found in the log at open (replayable state)"),
		tornTails:    o.Counter("framelog_torn_tails_total", "torn tails repaired at open"),
		truncated:    o.Counter("framelog_truncated_bytes_total", "bytes truncated repairing torn tails"),
		appendLat:    o.Histogram("framelog_append_seconds", "per-frame append latency (encode + write + policy fsync)", obs.ExpBuckets(1e-6, 4, 10)),
		fsyncLat:     o.Histogram("framelog_fsync_seconds", "fsync latency", obs.ExpBuckets(1e-5, 4, 10)),
	}
}

// ErrCorrupt marks corruption before the tail of a feed's log: data that was
// acknowledged durable fails its CRC. Unlike a torn tail it is never
// silently repaired — dropping acknowledged frames would break the replay
// guarantee, so the caller (an operator) must decide.
var ErrCorrupt = errors.New("framelog: corrupt record before the log tail")

// validFeedName guards against a feed ID escaping the log root. The serving
// layer's own feed-ID validation is stricter; this is defence in depth for
// direct library callers.
func validFeedName(feed string) error {
	if feed == "" || feed == "." || feed == ".." ||
		strings.ContainsAny(feed, "/\\") || strings.ContainsRune(feed, os.PathSeparator) {
		return fmt.Errorf("framelog: invalid feed name %q", feed)
	}
	return nil
}

// feedDir is where one feed's segments live.
func feedDir(root, feed string) string { return filepath.Join(root, feed) }

// segmentName formats the fixed-width segment file name; lexicographic
// order is numeric order.
func segmentName(n int) string { return fmt.Sprintf("%08d.flog", n) }

// listSegments returns the feed's segment numbers in ascending order.
func listSegments(dir string) ([]int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []int
	for _, e := range ents {
		if n, ok := segmentNumber(e.Name()); ok && !e.IsDir() {
			segs = append(segs, n)
		}
	}
	sort.Ints(segs)
	return segs, nil
}

// segmentNumber parses a segment file name; only names segmentName writes
// parse.
func segmentNumber(name string) (int, bool) {
	digits, ok := strings.CutSuffix(name, ".flog")
	if !ok || len(digits) != 8 || strings.Trim(digits, "0123456789") != "" {
		return 0, false
	}
	n, err := strconv.Atoi(digits)
	return n, err == nil
}

// ListFeeds returns the feed IDs that have a log directory under root, in
// sorted order. A missing root is an empty log, not an error.
func ListFeeds(root string) ([]string, error) {
	ents, err := os.ReadDir(root)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var feeds []string
	for _, e := range ents {
		if e.IsDir() {
			feeds = append(feeds, e.Name())
		}
	}
	sort.Strings(feeds)
	return feeds, nil
}
