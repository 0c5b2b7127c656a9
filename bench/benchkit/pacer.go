package benchkit

import "time"

// Clock is the time source the pacer sleeps on; tests substitute a fake.
type Clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

// SystemClock is the real clock.
type SystemClock struct{}

// Now returns time.Now.
func (SystemClock) Now() time.Time { return time.Now() }

// Sleep calls time.Sleep.
func (SystemClock) Sleep(d time.Duration) { time.Sleep(d) }

// Pacer drives an open loop: tick i is due at Start + i*Period whatever the
// system under test does. Latencies are measured from Due, so a stall that
// delays later sends is charged to the system, and how late the generator
// itself ran is kept per tick so a slow harness cannot hide in the result.
type Pacer struct {
	Clock  Clock
	Start  time.Time
	Period time.Duration
	late   []time.Duration
}

// Due returns the scheduled time of tick i.
func (p *Pacer) Due(i int) time.Time { return p.Start.Add(time.Duration(i) * p.Period) }

// Wait blocks until tick i is due and records how late the caller is
// released (zero when on time). It returns the scheduled time.
func (p *Pacer) Wait(i int) time.Time {
	due := p.Due(i)
	if d := due.Sub(p.Clock.Now()); d > 0 {
		p.Clock.Sleep(d)
	}
	late := p.Clock.Now().Sub(due)
	if late < 0 {
		late = 0
	}
	p.late = append(p.late, late)
	return due
}

// Lateness returns the recorded lateness of ticks [from, len) in
// milliseconds.
func (p *Pacer) Lateness(from int) []float64 {
	if from > len(p.late) {
		from = len(p.late)
	}
	out := make([]float64, 0, len(p.late)-from)
	for _, d := range p.late[from:] {
		out = append(out, float64(d)/float64(time.Millisecond))
	}
	return out
}
