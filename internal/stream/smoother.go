package stream

// Smoother debounces per-sample decisions with hysteresis: the announced
// state flips only after `need` consecutive contrary samples, so 20 Hz
// per-sample flicker is not reported as a door event. Every stream consumer
// gets it through Config.SmootherNeed.
type Smoother struct {
	state, run, need int
}

// NewSmoother returns a Smoother starting in `initial` that requires `need`
// consecutive contrary samples to flip (need < 1 is treated as 1, i.e. no
// hysteresis).
func NewSmoother(initial, need int) *Smoother {
	if need < 1 {
		need = 1
	}
	return &Smoother{state: initial, need: need}
}

// Push feeds one per-sample decision and returns the (possibly updated)
// announced state plus whether it flipped on this sample.
func (s *Smoother) Push(pred int) (state int, flipped bool) {
	if pred == s.state {
		s.run = 0
		return s.state, false
	}
	s.run++
	if s.run >= s.need {
		s.state = pred
		s.run = 0
		return s.state, true
	}
	return s.state, false
}
