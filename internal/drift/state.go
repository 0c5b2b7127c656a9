package drift

import (
	"errors"
	"slices"

	"repro/internal/statecodec"
)

// stateVersion tags EncodeState's encoding; RestoreState accepts no other.
const stateVersion = 1

// carried lists, in encoding order, the detector's state. The baseline
// fractions are not in it: they are a function of the baseline histogram.
func (d *Detector) carried() []any {
	fields := []any{&d.n, &d.refN, &d.winN, &d.psi, &d.ks, &d.windows, &d.streak, &d.triggered, &d.trigAt}
	for i := range d.ref {
		fields = append(fields, &d.ref[i], &d.win[i])
	}
	return fields
}

// EncodeState encodes the detector's state: a detector restored from it
// observes the following scores exactly as this one would.
func (d *Detector) EncodeState() []byte {
	return statecodec.Encode(stateVersion, d.carried()...)
}

// RestoreState replaces the detector's state with one EncodeState wrote
// under the same Config and returns the bytes after it. A state that does
// not decode, or that Observe and Reset cannot reach under this Config —
// histograms that do not hold what their counters say, a window before a
// full baseline, a trigger past the samples seen — changes nothing.
func (d *Detector) RestoreState(b []byte) ([]byte, error) {
	next := *d
	next.ref, next.win = slices.Clone(d.ref), slices.Clone(d.win)
	rest, err := statecodec.Decode(b, stateVersion, next.carried()...)
	if err != nil {
		return nil, err
	}
	var refSum, winSum int64
	valid := true
	for i := range next.ref {
		refSum, winSum = refSum+next.ref[i], winSum+next.win[i]
		valid = valid && next.ref[i] >= 0 && next.win[i] >= 0
	}
	c, full := next.cfg, next.refN == next.cfg.Baseline
	if !valid || next.refN < 0 || next.refN > c.Baseline || refSum != int64(next.refN) ||
		next.winN < 0 || next.winN >= c.Window || winSum != int64(next.winN) ||
		!full && (next.winN != 0 || next.windows != 0) || next.windows < 0 ||
		next.n != int64(next.refN)+next.windows*int64(c.Window)+int64(next.winN) ||
		next.streak < 0 || int64(next.streak) > next.windows || next.triggered != (next.trigAt > 0) || next.trigAt > next.n {
		return nil, errors.New("drift: restored state fails validation")
	}
	next.refFrac, next.refCDF = nil, nil
	if full {
		next.refFrac = smoothed(next.ref, next.refN)
		next.refCDF = cdf(next.refFrac)
	}
	*d = next
	return rest, nil
}
