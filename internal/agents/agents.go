// Package agents simulates the occupants of the paper's office: six people
// with stochastic workday schedules who enter, sit at desks, walk around,
// stand in meetings, leave for errands, and occasionally move furniture —
// the "completely unconstrained environment" of §IV-A. The simulator is the
// ground-truth label source (occupancy status and simultaneous-occupant
// count, Table II) and drives the dynamic part of the CSI channel model.
package agents

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Activity is what a present person is currently doing.
type Activity int

// Activities. Out means not in the room.
const (
	Out Activity = iota
	AtDesk
	Walking
	Standing
)

// String implements fmt.Stringer.
func (a Activity) String() string {
	switch a {
	case Out:
		return "out"
	case AtDesk:
		return "desk"
	case Walking:
		return "walking"
	case Standing:
		return "standing"
	default:
		return fmt.Sprintf("activity(%d)", int(a))
	}
}

// Point is a 2-D position in metres within the room.
type Point struct{ X, Y float64 }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Config parametrises the occupant simulator.
type Config struct {
	// NumPersons is the staff size (paper: 6 — two women, four men).
	NumPersons int
	// RoomW, RoomH are the office dimensions in metres (paper: 12×6).
	RoomW, RoomH float64
	// ArrivalMeanHour / ArrivalStdMin: morning arrival distribution.
	ArrivalMeanHour float64
	ArrivalStdMin   float64
	// DepartMeanHour / DepartStdMin: evening departure distribution.
	DepartMeanHour float64
	DepartStdMin   float64
	// LunchOutProb is the probability a person leaves for lunch.
	LunchOutProb float64
	// ErrandRatePerHour is how often a present person steps out briefly.
	ErrandRatePerHour float64
	// FurnitureCount is the number of movable furniture scatterers.
	FurnitureCount int
	// FurnitureMoveRatePerHour is the per-hour probability that an
	// occupied room sees one furniture item moved.
	FurnitureMoveRatePerHour float64
	// WorkDays lists the weekdays people come in (default Mon–Fri). The
	// paper's capture ran Tuesday–Friday; longer simulations need the
	// weekend gap to look right.
	WorkDays []time.Weekday
	// ForcedEmpty lists intervals during which everyone is kept out.
	ForcedEmpty []TimeRange
	// ForcedBusy lists intervals with a minimum number of people present
	// (scripts the fully-occupied fold 5 of Table III).
	ForcedBusy []BusyRange
	// WalkSpeed in m/s.
	WalkSpeed float64
	Seed      int64
}

// Validate reports whether the scenario is simulable: every float field
// must be finite (NaN would pass any range check), counts, dimensions,
// spreads, rates and speeds non-negative, hours within the day and
// LunchOutProb a probability. Zero values are fine — NewSimulator defaults
// them.
func (c Config) Validate() error {
	if c.NumPersons < 0 || c.FurnitureCount < 0 {
		return fmt.Errorf("agents: negative head counts (persons %d, furniture %d)", c.NumPersons, c.FurnitureCount)
	}
	inf := math.Inf(1)
	for _, f := range []struct {
		name      string
		v, lo, hi float64
	}{
		{"RoomW", c.RoomW, 0, inf}, {"RoomH", c.RoomH, 0, inf},
		{"ArrivalMeanHour", c.ArrivalMeanHour, 0, 24}, {"ArrivalStdMin", c.ArrivalStdMin, 0, inf},
		{"DepartMeanHour", c.DepartMeanHour, 0, 24}, {"DepartStdMin", c.DepartStdMin, 0, inf},
		{"LunchOutProb", c.LunchOutProb, 0, 1}, {"ErrandRatePerHour", c.ErrandRatePerHour, 0, inf},
		{"FurnitureMoveRatePerHour", c.FurnitureMoveRatePerHour, 0, inf}, {"WalkSpeed", c.WalkSpeed, 0, inf},
	} {
		if math.IsInf(f.v, 0) || !(f.v >= f.lo && f.v <= f.hi) {
			return fmt.Errorf("agents: %s = %g, want a finite value in [%g, %g]", f.name, f.v, f.lo, f.hi)
		}
	}
	return nil
}

// TimeRange is a closed-open absolute time interval.
type TimeRange struct{ From, To time.Time }

// Contains reports whether t lies in the range.
func (r TimeRange) Contains(t time.Time) bool {
	return !t.Before(r.From) && t.Before(r.To)
}

// BusyRange forces at least MinPresent people into the room.
type BusyRange struct {
	TimeRange
	MinPresent int
}

// DefaultConfig matches the paper's office setup.
func DefaultConfig() Config {
	return Config{
		NumPersons:               6,
		RoomW:                    12,
		RoomH:                    6,
		ArrivalMeanHour:          9.2,
		ArrivalStdMin:            60,
		DepartMeanHour:           17.4,
		DepartStdMin:             35,
		LunchOutProb:             0.8,
		ErrandRatePerHour:        0.9,
		FurnitureCount:           6,
		FurnitureMoveRatePerHour: 0.25,
		WalkSpeed:                1.1,
		Seed:                     1,
		WorkDays: []time.Weekday{
			time.Monday, time.Tuesday, time.Wednesday, time.Thursday, time.Friday,
		},
	}
}

// person is one simulated occupant.
type person struct {
	desk       Point
	pos        Point
	target     Point
	activity   Activity
	stateUntil time.Time
	// Daily schedule (recomputed at each midnight crossing).
	arrive, depart      time.Time
	lunchOut, lunchBack time.Time
	hasLunch            bool
	scheduleDay         int // day-of-year the schedule belongs to
	// errandUntil, when in the future, keeps the person out of the room
	// (meetings, coffee, other offices) — the reason a six-person staff
	// rarely yields six simultaneous occupants (paper Table II: ≤4).
	errandUntil time.Time
}

// PersonView is the externally visible per-person state.
type PersonView struct {
	ID       int
	Pos      Point
	Activity Activity
	// Speed is the current movement speed in m/s (0 when static).
	Speed float64
}

// Snapshot is the instantaneous ground truth at one tick.
type Snapshot struct {
	Time  time.Time
	Count int // simultaneous occupants
	// Present holds only the people currently inside the room.
	Present []PersonView
	// Furniture positions (static scatterers that occasionally move).
	Furniture []Point
	// LayoutVersion increments whenever furniture moves.
	LayoutVersion int
}

// Simulator drives the occupant population.
type Simulator struct {
	cfg       Config
	rng       *rand.Rand
	people    []person
	furniture []Point
	layoutVer int
}

// New creates a Simulator. Zero config fields take defaults.
func New(cfg Config) *Simulator {
	def := DefaultConfig()
	if cfg.NumPersons == 0 {
		cfg.NumPersons = def.NumPersons
	}
	if cfg.RoomW == 0 {
		cfg.RoomW = def.RoomW
	}
	if cfg.RoomH == 0 {
		cfg.RoomH = def.RoomH
	}
	if cfg.ArrivalMeanHour == 0 {
		cfg.ArrivalMeanHour = def.ArrivalMeanHour
	}
	if cfg.ArrivalStdMin == 0 {
		cfg.ArrivalStdMin = def.ArrivalStdMin
	}
	if cfg.DepartMeanHour == 0 {
		cfg.DepartMeanHour = def.DepartMeanHour
	}
	if cfg.DepartStdMin == 0 {
		cfg.DepartStdMin = def.DepartStdMin
	}
	if cfg.LunchOutProb == 0 {
		cfg.LunchOutProb = def.LunchOutProb
	}
	if cfg.ErrandRatePerHour == 0 {
		cfg.ErrandRatePerHour = def.ErrandRatePerHour
	}
	if cfg.FurnitureCount == 0 {
		cfg.FurnitureCount = def.FurnitureCount
	}
	if cfg.FurnitureMoveRatePerHour == 0 {
		cfg.FurnitureMoveRatePerHour = def.FurnitureMoveRatePerHour
	}
	if cfg.WalkSpeed == 0 {
		cfg.WalkSpeed = def.WalkSpeed
	}
	if cfg.WorkDays == nil {
		cfg.WorkDays = def.WorkDays
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	s := &Simulator{cfg: cfg, rng: rng}
	s.people = make([]person, cfg.NumPersons)
	for i := range s.people {
		desk := Point{
			X: 1.5 + rng.Float64()*(cfg.RoomW-3),
			Y: 1.0 + rng.Float64()*(cfg.RoomH-2),
		}
		s.people[i] = person{desk: desk, pos: desk, activity: Out, scheduleDay: -1}
	}
	s.furniture = make([]Point, cfg.FurnitureCount)
	for i := range s.furniture {
		s.furniture[i] = Point{
			X: 0.5 + rng.Float64()*(cfg.RoomW-1),
			Y: 0.5 + rng.Float64()*(cfg.RoomH-1),
		}
	}
	return s
}

// atTime builds a clock-of-day time on t's date.
func atTime(t time.Time, hours float64) time.Time {
	h := int(hours)
	m := int((hours - float64(h)) * 60)
	return time.Date(t.Year(), t.Month(), t.Day(), h, m, 0, 0, t.Location())
}

// planDay draws the day's schedule for person p.
func (s *Simulator) planDay(p *person, t time.Time) {
	p.scheduleDay = t.YearDay()
	cfg := &s.cfg
	arriveH := cfg.ArrivalMeanHour + s.rng.NormFloat64()*cfg.ArrivalStdMin/60
	departH := cfg.DepartMeanHour + s.rng.NormFloat64()*cfg.DepartStdMin/60
	if departH < arriveH+2 {
		departH = arriveH + 2
	}
	p.arrive = atTime(t, arriveH)
	p.depart = atTime(t, departH)
	p.hasLunch = s.rng.Float64() < cfg.LunchOutProb
	if p.hasLunch {
		lunchH := 12.3 + s.rng.NormFloat64()*0.4
		p.lunchOut = atTime(t, lunchH)
		p.lunchBack = p.lunchOut.Add(time.Duration(25+s.rng.Intn(50)) * time.Minute)
	}
}

// shouldBeInside applies the schedule plus forced overrides for person i.
func (s *Simulator) shouldBeInside(i int, t time.Time) bool {
	for _, r := range s.cfg.ForcedEmpty {
		if r.Contains(t) {
			return false
		}
	}
	for _, r := range s.cfg.ForcedBusy {
		if r.Contains(t) && i < r.MinPresent {
			return true
		}
	}
	if !s.isWorkDay(t) {
		return false
	}
	p := &s.people[i]
	if t.Before(p.arrive) || !t.Before(p.depart) {
		return false
	}
	if p.hasLunch && !t.Before(p.lunchOut) && t.Before(p.lunchBack) {
		return false
	}
	if t.Before(p.errandUntil) {
		return false
	}
	return true
}

// isWorkDay reports whether t falls on a configured working weekday.
func (s *Simulator) isWorkDay(t time.Time) bool {
	wd := t.Weekday()
	for _, d := range s.cfg.WorkDays {
		if d == wd {
			return true
		}
	}
	return false
}

// randomPointInRoom draws a uniform position with a wall margin.
func (s *Simulator) randomPointInRoom() Point {
	return Point{
		X: 0.5 + s.rng.Float64()*(s.cfg.RoomW-1),
		Y: 0.5 + s.rng.Float64()*(s.cfg.RoomH-1),
	}
}

// Step advances all occupants by dt and returns the resulting snapshot.
func (s *Simulator) Step(t time.Time, dt time.Duration) Snapshot {
	dth := dt.Hours()
	occupiedBefore := 0
	for i := range s.people {
		p := &s.people[i]
		if p.scheduleDay != t.YearDay() {
			s.planDay(p, t)
		}
		inside := s.shouldBeInside(i, t)
		switch {
		case !inside && p.activity != Out:
			p.activity = Out
			p.pos = p.desk // re-entry restores the desk position
		case inside && p.activity == Out:
			p.activity = Walking // entering: walk to desk
			p.pos = Point{X: 0.2, Y: s.cfg.RoomH / 2}
			p.target = p.desk
		case inside:
			// Errands: step out for a while (meeting, coffee, another
			// office). The forced-busy override in shouldBeInside keeps
			// scripted minimum staffing intact.
			if s.rng.Float64() < s.cfg.ErrandRatePerHour*dth {
				p.errandUntil = t.Add(time.Duration(15+s.rng.Intn(46)) * time.Minute)
			}
			s.stepInside(p, t, dt)
		}
		if p.activity != Out {
			occupiedBefore++
		}
	}

	// Errands: a present person may briefly step out. Modelled by
	// shortening today's presence via a forced Out dwell.
	// (Handled inside stepInside via the Out-errand state below.)

	// Furniture moves only while someone is in the room.
	if occupiedBefore > 0 && s.rng.Float64() < s.cfg.FurnitureMoveRatePerHour*dth {
		idx := s.rng.Intn(len(s.furniture))
		f := &s.furniture[idx]
		f.X = clamp(f.X+s.rng.NormFloat64()*0.8, 0.3, s.cfg.RoomW-0.3)
		f.Y = clamp(f.Y+s.rng.NormFloat64()*0.8, 0.3, s.cfg.RoomH-0.3)
		s.layoutVer++
	}

	snap := Snapshot{Time: t, Furniture: s.furniture, LayoutVersion: s.layoutVer}
	for i := range s.people {
		p := &s.people[i]
		if p.activity == Out {
			continue
		}
		speed := 0.0
		if p.activity == Walking {
			speed = s.cfg.WalkSpeed
		}
		snap.Present = append(snap.Present, PersonView{
			ID: i, Pos: p.pos, Activity: p.activity, Speed: speed,
		})
	}
	snap.Count = len(snap.Present)
	return snap
}

// stepInside advances one in-room person's activity state machine.
func (s *Simulator) stepInside(p *person, t time.Time, dt time.Duration) {
	switch p.activity {
	case Walking:
		step := s.cfg.WalkSpeed * dt.Seconds()
		d := p.pos.Dist(p.target)
		if d <= step {
			p.pos = p.target
			// Arrived: choose desk work or standing.
			if p.target == p.desk {
				p.activity = AtDesk
				p.stateUntil = t.Add(time.Duration(5+s.rng.Intn(26)) * time.Minute)
			} else {
				p.activity = Standing
				p.stateUntil = t.Add(time.Duration(1+s.rng.Intn(5)) * time.Minute)
			}
			return
		}
		p.pos.X += (p.target.X - p.pos.X) / d * step
		p.pos.Y += (p.target.Y - p.pos.Y) / d * step
	case AtDesk, Standing:
		if t.Before(p.stateUntil) {
			return
		}
		// Dwell over: mostly walk somewhere (or back to the desk).
		p.activity = Walking
		if s.rng.Float64() < 0.6 {
			p.target = p.desk
		} else {
			p.target = s.randomPointInRoom()
		}
	}
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
