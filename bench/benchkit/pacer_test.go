package benchkit

import (
	"testing"
	"time"
)

// fakeClock only moves when slept on or advanced by the test.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

func TestPacerOpenLoopLateness(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &fakeClock{now: start}
	p := &Pacer{Clock: clk, Start: start, Period: 10 * time.Millisecond}

	// Tick 0 is due now: no sleep, no lateness.
	if due := p.Wait(0); !due.Equal(start) {
		t.Fatalf("tick 0 due %v, want %v", due, start)
	}
	// The system answers in 2 ms; tick 1 is then 8 ms away and on time.
	clk.Sleep(2 * time.Millisecond)
	p.Wait(1)
	if got := clk.now.Sub(start); got != 10*time.Millisecond {
		t.Fatalf("after tick 1 the clock reads +%v, want +10ms", got)
	}
	// A 35 ms stall: ticks 2, 3 and 4 were due at +20, +30, +40 and are
	// released at +45 without sleeping — late by 25, 15 and 5 ms. Their
	// due times do not move: the schedule is independent of the system.
	clk.Sleep(35 * time.Millisecond)
	for i := 2; i <= 4; i++ {
		due := p.Wait(i)
		if want := start.Add(time.Duration(i) * 10 * time.Millisecond); !due.Equal(want) {
			t.Errorf("tick %d due %v, want %v", i, due, want)
		}
	}
	if got := clk.now.Sub(start); got != 45*time.Millisecond {
		t.Errorf("late ticks must not sleep: clock reads +%v, want +45ms", got)
	}
	// Tick 5 (+50) is ahead again.
	p.Wait(5)

	want := []float64{0, 0, 25, 15, 5, 0}
	got := p.Lateness(0)
	if len(got) != len(want) {
		t.Fatalf("lateness has %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("tick %d late by %v ms, want %v", i, got[i], want[i])
		}
	}
	if tail := p.Lateness(4); len(tail) != 2 || tail[0] != 5 {
		t.Errorf("Lateness(4) = %v, want [5 0]", tail)
	}
	if empty := p.Lateness(99); len(empty) != 0 {
		t.Errorf("Lateness past the end = %v, want empty", empty)
	}
}
