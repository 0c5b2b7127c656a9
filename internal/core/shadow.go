package core

import (
	"errors"
	"fmt"

	"repro/internal/dataset"
	"repro/internal/fault"
	"repro/internal/framelog"
)

// errFramesCapped aborts a replay once maxFrames is reached; it never
// escapes PseudoLabel.
var errFramesCapped = errors.New("core: frame cap reached")

// PseudoLabel builds a shadow candidate's training set: the frames a
// serving node retained in its frame log under logDir, each with its Count
// replaced by the active detector's label. The logs carry no occupancy
// ground truth — they record what arrived on the wire — so the active
// model's decisions stand in as labels, and TrainDetector on the result
// (with the active detector's features, which the install gate requires)
// distills the incumbent on exactly the traffic it has been serving: the
// retraining substrate drift recovery needs. Swap in real labels here when
// a deployment has them.
//
// feeds selects the feeds and their order (empty: every feed under
// logDir). Frames keep append order, dropped frames (no CSI) are skipped,
// and maxFrames caps the total in feed order (0: no cap), so the result is
// deterministic for a fixed log state.
func PseudoLabel(active *Detector, logDir string, feeds []string, maxFrames int) (*dataset.Dataset, error) {
	switch {
	case active == nil:
		return nil, fmt.Errorf("core: nil active detector")
	case logDir == "":
		return nil, fmt.Errorf("core: no frame-log directory")
	case maxFrames < 0:
		return nil, fmt.Errorf("core: negative MaxFrames %d", maxFrames)
	}
	if len(feeds) == 0 {
		var err error
		if feeds, err = framelog.ListFeeds(logDir); err != nil {
			return nil, err
		}
	}

	ds := &dataset.Dataset{}
	capped := func() bool { return maxFrames > 0 && ds.Len() >= maxFrames }
	for _, feed := range feeds {
		if capped() {
			break
		}
		_, err := framelog.Replay(logDir, feed, -1, func(fr fault.Frame) error {
			if fr.Dropped {
				return nil
			}
			_, fr.Rec.Count = active.PredictRecord(&fr.Rec)
			ds.Records = append(ds.Records, fr.Rec)
			if capped() {
				return errFramesCapped
			}
			return nil
		})
		if err != nil && !errors.Is(err, errFramesCapped) {
			return nil, fmt.Errorf("core: replaying %s: %w", feed, err)
		}
	}
	if ds.Len() == 0 {
		return nil, fmt.Errorf("core: no trainable frames under %s", logDir)
	}
	return ds, nil
}
