package stream

import (
	"errors"

	"repro/internal/statecodec"
)

// stateVersion tags EncodeState's encoding; RestoreState accepts no other.
const stateVersion = 1

// carried lists, in encoding order, every field Process carries from one
// frame to the next.
func (rt *Runtime) carried() []any {
	h, d := &rt.envHist, &rt.lastDec
	fields := []any{(*int)(&rt.mode), &rt.envMissRun, &rt.envOKRun, &rt.dropRun, &rt.haveCSI, &rt.haveDec,
		&d.P, &d.Pred, &d.State, &d.Flipped, (*int)(&d.Mode), &d.CSIImputed, &d.EnvImputed,
		&h[0].index, &h[0].temp, &h[0].hum, &h[1].index, &h[1].temp, &h[1].hum, &rt.envCount,
		&rt.frames, &rt.firstFallback}
	for k := range rt.lastCSI {
		fields = append(fields, &rt.lastCSI[k])
	}
	if rt.sm != nil {
		fields = append(fields, &rt.sm.state, &rt.sm.run)
	}
	return fields
}

// EncodeState encodes everything a later Process call depends on besides
// its frame, so a runtime restored from it decides the following frames bit
// for bit as this one would.
func (rt *Runtime) EncodeState() []byte {
	return statecodec.Encode(stateVersion, rt.carried()...)
}

// RestoreState replaces the runtime's state with one EncodeState wrote under
// the same Config and returns the bytes after it. A state that does not
// decode or validate — a mode this Config cannot be in, a negative count, a
// smoother run at or past its need — changes nothing.
func (rt *Runtime) RestoreState(b []byte) ([]byte, error) {
	next := *rt
	if rt.sm != nil {
		sm := *rt.sm
		next.sm = &sm
	}
	rest, err := statecodec.Decode(b, stateVersion, next.carried()...)
	if err != nil {
		return nil, err
	}
	canFallBack := rt.cfg.PrimaryUsesEnv && rt.cfg.Fallback != nil
	if next.mode != ModePrimary && (next.mode != ModeFallback || !canFallBack) ||
		next.envMissRun < 0 || next.envOKRun < 0 || next.dropRun < 0 || next.envCount < 0 || next.envCount > 2 ||
		next.firstFallback < -1 || next.firstFallback >= next.frames ||
		next.lastDec.Mode < ModePrimary || next.lastDec.Mode > ModeHeld ||
		next.sm != nil && (next.sm.run < 0 || next.sm.run >= next.sm.need) {
		return nil, errors.New("stream: restored state fails validation")
	}
	*rt = next
	return rest, nil
}
