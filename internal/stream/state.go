package stream

import (
	"errors"

	"repro/internal/statecodec"
)

// stateVersion tags EncodeState's encoding; RestoreState accepts no other.
const stateVersion = 2

// carried lists, in encoding order, every field Process carries from one
// frame to the next.
func (rt *Runtime) carried() []any {
	d := &rt.lastDec
	fields := []any{&rt.envMissRun, &rt.dropRun, &rt.haveEnv, &rt.haveCSI, &rt.haveDec, &rt.lastTemp, &rt.lastHum,
		&d.P, &d.Pred, &d.State, &d.Flipped, (*int)(&d.Mode), &d.CSIImputed, &d.EnvImputed}
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
// decode or validate — another version, a negative count, a decision mode
// with no name, a smoother run at or past its need — changes nothing.
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
	if next.envMissRun < 0 || next.dropRun < 0 ||
		next.lastDec.Mode < ModePrimary || next.lastDec.Mode > ModeHeld ||
		next.sm != nil && (next.sm.run < 0 || next.sm.run >= next.sm.need) {
		return nil, errors.New("stream: restored state fails validation")
	}
	*rt = next
	return rest, nil
}
