package server

import (
	"repro/internal/dataset"
	"repro/internal/infer"
	"repro/internal/stream"
)

// versionedPredictor is the per-feed primary predictor on a registry-backed
// server: each prediction resolves the feed's version (pin, else active) at
// call time, so an Activate pointer-flip takes effect on the very next
// frame with zero in-flight loss — a frame already being scored finishes on
// the version it resolved. lastID records which version produced the most
// recent inference; feed.decide reads it to tag the decision. Both are
// touched only under the feed lock (live ingest and recovery replay alike),
// so no further synchronization is needed.
type versionedPredictor struct {
	reg    *infer.Registry
	feed   string
	def    stream.Predictor // serves when no version is active or payload-less
	lastID string
}

func (vp *versionedPredictor) PredictRecord(r *dataset.Record) (float64, int) {
	if v := vp.reg.ResolveFor(vp.feed); v != nil {
		if p, ok := v.Payload().(stream.Predictor); ok && p != nil {
			vp.lastID = v.ID()
			return p.PredictRecord(r)
		}
	}
	vp.lastID = ""
	return vp.def.PredictRecord(r)
}
