package server

import (
	"errors"
	"fmt"
	"io/fs"
	"time"

	"repro/internal/framelog"
	"repro/internal/infer"
	"repro/internal/statecodec"
)

// Why a feed's snapshot was not restored, the reason label of
// server_snapshots_ignored_total; framelog names the anchor reasons.
const (
	ignoredMissing = "missing"
	ignoredCorrupt = "corrupt"
	ignoredScorer  = "scorer"
	ignoredInvalid = "invalid"
)

var ignoreReasons = []string{ignoredMissing, ignoredCorrupt, framelog.AnchorMismatch,
	framelog.BeyondLog, framelog.BeforeLog, ignoredScorer, ignoredInvalid}

// restore takes what reading the feed's snapshot returned. When this feed's
// scorer wrote the snapshot and its state validates, the state becomes the
// feed's and restore returns the anchor the log must hold for it to stand;
// otherwise the feed stays (or is made) fresh and reason says why.
func (f *feed) restore(snap framelog.Snapshot, err error) (from framelog.Anchor, reason string, _ error) {
	switch {
	case errors.Is(err, fs.ErrNotExist):
		return from, ignoredMissing, nil
	case err != nil:
		return from, ignoredCorrupt, nil
	case snap.Scorer != f.scorer():
		return from, ignoredScorer, nil
	case f.restoreState(snap.State) != nil:
		return from, ignoredInvalid, f.fresh()
	}
	return snap.Anchor, "", nil
}

// saveSnapshot makes the feed's decision state its snapshot. One that fails
// to land leaves the previous snapshot, which anchors earlier or not at all:
// the next recovery replays more, never wrongly. Callers hold mu.
func (f *feed) saveSnapshot() {
	_ = f.log.SaveSnapshot(f.scorer(), f.encodeState())
}

// scorer names what turns this feed's frames into decisions — the model
// version it resolves, then what scorerOf names — so a snapshot is restored
// only under the scorer that wrote it.
func (f *feed) scorer() string {
	id := ""
	if f.vp != nil {
		if v := f.vp.reg.ResolveFor(f.id); v != nil {
			id = v.ID()
		}
	}
	return id + " " + f.srv.scorer
}

// scorerOf names what decides every feed's frames besides the model version:
// the primary engine's precision and kernel, and the runtime and drift
// settings.
func scorerOf(c Config) string {
	prec, kernel := infer.Precision(""), ""
	if e, ok := c.Primary.(interface {
		Precision() infer.Precision
		Kernel() string
	}); ok {
		prec, kernel = e.Precision(), e.Kernel()
	}
	return fmt.Sprintf("%s/%s hold=%d watchdog=%d smoother=%d env=%t fallback=%t drift=%+v", prec, kernel,
		c.MaxHoldGap, c.WatchdogFrames, c.SmootherNeed, c.PrimaryUsesEnv, c.Fallback != nil, c.Drift)
}

// stateVersion tags the feed's own part of the snapshot state.
const stateVersion = 1

// carried lists, in encoding order, what decide carries between frames
// besides the runtime and drift state: the latest decision — its time as
// Unix nanoseconds, as the log stores frame times, so a restored decision
// reads like a replayed one — and the version behind the last primary one.
func carried(have *bool, last *Event, at *int64, ver *string) []any {
	return []any{have, &last.Seq, at, &last.P, &last.Pred, &last.State, &last.Flipped, &last.Mode,
		&last.CSIImputed, &last.EnvImputed, &last.ModelVersion, ver}
}

// encodeState encodes the feed's decision state: the runtime's, the drift
// detector's, then the feed's own.
func (f *feed) encodeState() []byte {
	b := f.rt.EncodeState()
	if f.drift != nil {
		b = append(b, f.drift.EncodeState()...)
	}
	at := f.last.Time.UnixNano()
	return append(b, statecodec.Encode(stateVersion, carried(&f.haveLast, &f.last, &at, &f.lastVer)...)...)
}

// restoreState replaces the feed's decision state with one encodeState
// wrote. On error the feed may be partly restored; the caller makes it fresh.
func (f *feed) restoreState(b []byte) (err error) {
	var (
		have bool
		last Event
		at   int64
		ver  string
	)
	if b, err = f.rt.RestoreState(b); err == nil && f.drift != nil {
		b, err = f.drift.RestoreState(b)
	}
	if err == nil {
		b, err = statecodec.Decode(b, stateVersion, carried(&have, &last, &at, &ver)...)
	}
	if err == nil && (len(b) != 0 || have && last.Mode != "primary" && last.Mode != "fallback" && last.Mode != "held") {
		err = errors.New("server: restored feed state fails validation")
	}
	if err == nil {
		last.Time = time.Unix(0, at).UTC()
		f.haveLast, f.last, f.lastVer = have, last, ver
	}
	return err
}
