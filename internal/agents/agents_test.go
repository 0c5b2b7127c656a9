package agents

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

var day = time.Date(2022, 1, 5, 0, 0, 0, 0, time.UTC) // a Wednesday

// runDay steps the simulator across a whole day at the given tick and
// returns the per-tick occupant counts.
func runDay(s *Simulator, start time.Time, d time.Duration, dt time.Duration) []Snapshot {
	var snaps []Snapshot
	for t := start; t.Before(start.Add(d)); t = t.Add(dt) {
		snaps = append(snaps, s.Step(t, dt))
	}
	return snaps
}

func TestNightIsEmptyWorkdayIsOccupied(t *testing.T) {
	s := New(Config{Seed: 1})
	snaps := runDay(s, day, 24*time.Hour, 30*time.Second)
	nightOcc, dayOcc := 0, 0
	nightN, dayN := 0, 0
	for _, sn := range snaps {
		h := sn.Time.Hour()
		if h < 6 {
			nightN++
			if sn.Count > 0 {
				nightOcc++
			}
		}
		if h >= 11 && h < 12 {
			dayN++
			if sn.Count > 0 {
				dayOcc++
			}
		}
	}
	if nightOcc != 0 {
		t.Fatalf("%d/%d night ticks occupied", nightOcc, nightN)
	}
	if float64(dayOcc)/float64(dayN) < 0.9 {
		t.Fatalf("late morning occupancy too low: %d/%d", dayOcc, dayN)
	}
}

func TestCountWithinStaffSize(t *testing.T) {
	s := New(Config{NumPersons: 4, Seed: 2})
	snaps := runDay(s, day, 24*time.Hour, time.Minute)
	for _, sn := range snaps {
		if sn.Count < 0 || sn.Count > 4 {
			t.Fatalf("count %d out of range", sn.Count)
		}
		if sn.Count != len(sn.Present) {
			t.Fatal("count must equal len(Present)")
		}
	}
}

func TestForcedEmptyOverridesSchedule(t *testing.T) {
	forced := TimeRange{From: day.Add(10 * time.Hour), To: day.Add(14 * time.Hour)}
	s := New(Config{Seed: 3, ForcedEmpty: []TimeRange{forced}})
	snaps := runDay(s, day.Add(9*time.Hour), 6*time.Hour, time.Minute)
	for _, sn := range snaps {
		if forced.Contains(sn.Time) && sn.Count > 0 {
			t.Fatalf("occupied during forced-empty at %v", sn.Time)
		}
	}
}

func TestForcedBusyKeepsPeopleIn(t *testing.T) {
	forced := BusyRange{
		TimeRange:  TimeRange{From: day.Add(22 * time.Hour), To: day.Add(23 * time.Hour)},
		MinPresent: 3,
	}
	s := New(Config{Seed: 4, ForcedBusy: []BusyRange{forced}})
	snaps := runDay(s, day.Add(22*time.Hour), time.Hour, time.Minute)
	// Skip the first couple of minutes while people walk in.
	for _, sn := range snaps[5:] {
		if sn.Count < 3 {
			t.Fatalf("forced-busy violated: %d present at %v", sn.Count, sn.Time)
		}
	}
}

func TestPositionsStayInRoom(t *testing.T) {
	s := New(Config{Seed: 5})
	snaps := runDay(s, day.Add(8*time.Hour), 8*time.Hour, 10*time.Second)
	for _, sn := range snaps {
		for _, p := range sn.Present {
			if p.Pos.X < 0 || p.Pos.X > 12 || p.Pos.Y < 0 || p.Pos.Y > 6 {
				t.Fatalf("person %d escaped the room: %+v", p.ID, p.Pos)
			}
		}
	}
}

func TestActivitiesObserved(t *testing.T) {
	s := New(Config{Seed: 6})
	seen := map[Activity]bool{}
	for _, sn := range runDay(s, day.Add(8*time.Hour), 10*time.Hour, 5*time.Second) {
		for _, p := range sn.Present {
			seen[p.Activity] = true
			if p.Activity == Walking && p.Speed == 0 {
				t.Fatal("walking person must have speed")
			}
			if p.Activity == AtDesk && p.Speed != 0 {
				t.Fatal("desk person must be static")
			}
		}
	}
	for _, a := range []Activity{AtDesk, Walking, Standing} {
		if !seen[a] {
			t.Fatalf("activity %v never observed", a)
		}
	}
}

func TestFurnitureMovesOnlyWhenOccupied(t *testing.T) {
	// Empty building (forced): layout must never change.
	forced := TimeRange{From: day, To: day.Add(24 * time.Hour)}
	s := New(Config{Seed: 7, ForcedEmpty: []TimeRange{forced}, FurnitureMoveRatePerHour: 50})
	snaps := runDay(s, day, 24*time.Hour, time.Minute)
	for _, sn := range snaps {
		if sn.LayoutVersion != 0 {
			t.Fatal("furniture moved in an empty room")
		}
	}
	// Busy room with a high move rate: layout must change.
	s2 := New(Config{Seed: 8, FurnitureMoveRatePerHour: 10})
	snaps2 := runDay(s2, day.Add(9*time.Hour), 8*time.Hour, time.Minute)
	if snaps2[len(snaps2)-1].LayoutVersion == 0 {
		t.Fatal("furniture never moved in a busy room")
	}
}

func TestDeterministicForSeed(t *testing.T) {
	run := func() []Snapshot {
		return runDay(New(Config{Seed: 9}), day.Add(7*time.Hour), 4*time.Hour, 15*time.Second)
	}
	a, b := run(), run()
	for i := range a {
		if a[i].Count != b[i].Count || a[i].LayoutVersion != b[i].LayoutVersion {
			t.Fatal("simulation must be deterministic")
		}
		for j := range a[i].Present {
			if a[i].Present[j] != b[i].Present[j] {
				t.Fatal("positions must be deterministic")
			}
		}
	}
}

func TestActivityString(t *testing.T) {
	for a, want := range map[Activity]string{
		Out: "out", AtDesk: "desk", Walking: "walking", Standing: "standing", Activity(9): "activity(9)",
	} {
		if a.String() != want {
			t.Fatalf("%d → %q", int(a), a.String())
		}
	}
}

func TestPointDist(t *testing.T) {
	if d := (Point{0, 0}).Dist(Point{3, 4}); d != 5 {
		t.Fatalf("Dist got %g", d)
	}
}

func TestDefaultsApplied(t *testing.T) {
	s := New(Config{})
	if len(s.people) != 6 || len(s.furniture) != 6 {
		t.Fatalf("defaults not applied: %d people %d furniture", len(s.people), len(s.furniture))
	}
}

func TestWeekendIsEmpty(t *testing.T) {
	// Jan 8/9 2022 was a weekend.
	sat := time.Date(2022, 1, 8, 0, 0, 0, 0, time.UTC)
	s := New(Config{Seed: 10})
	for _, sn := range runDay(s, sat, 48*time.Hour, 5*time.Minute) {
		if sn.Count > 0 {
			t.Fatalf("weekend occupancy at %v", sn.Time)
		}
	}
}

func TestCustomWorkDays(t *testing.T) {
	// Saturday-only office.
	s := New(Config{Seed: 11, WorkDays: []time.Weekday{time.Saturday}})
	sat := time.Date(2022, 1, 8, 0, 0, 0, 0, time.UTC)
	occupied := 0
	for _, sn := range runDay(s, sat, 24*time.Hour, time.Minute) {
		if sn.Count > 0 {
			occupied++
		}
	}
	if occupied == 0 {
		t.Fatal("saturday-only office never occupied on Saturday")
	}
	// And empty on Monday.
	mon := time.Date(2022, 1, 10, 0, 0, 0, 0, time.UTC)
	for _, sn := range runDay(s, mon, 24*time.Hour, 5*time.Minute) {
		if sn.Count > 0 {
			t.Fatal("saturday-only office occupied on Monday")
		}
	}
}

func TestForcedBusyOverridesWeekend(t *testing.T) {
	sat := time.Date(2022, 1, 8, 10, 0, 0, 0, time.UTC)
	s := New(Config{Seed: 12, ForcedBusy: []BusyRange{{
		TimeRange:  TimeRange{From: sat, To: sat.Add(time.Hour)},
		MinPresent: 2,
	}}})
	snaps := runDay(s, sat, time.Hour, time.Minute)
	for _, sn := range snaps[5:] {
		if sn.Count < 2 {
			t.Fatalf("forced busy must override the weekend: %d at %v", sn.Count, sn.Time)
		}
	}
}

// TestValidateRejectsNonFinite: NaN passes every ordered range check, so
// Validate must refuse NaN and ±Inf in each float field, by name. The table
// is every float64 field of Config, found by reflection, so a field added
// later is covered too.
func TestValidateRejectsNonFinite(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("DefaultConfig: %v", err)
	}
	ct := reflect.TypeOf(Config{})
	n := 0
	for i := 0; i < ct.NumField(); i++ {
		f := ct.Field(i)
		if f.Type.Kind() != reflect.Float64 {
			continue
		}
		n++
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			c := DefaultConfig()
			reflect.ValueOf(&c).Elem().Field(i).SetFloat(bad)
			if err := c.Validate(); err == nil || !strings.Contains(err.Error(), " "+f.Name+" = ") {
				t.Errorf("%s = %v: Validate() = %v, want an error naming the field", f.Name, bad, err)
			}
		}
	}
	if n != 10 {
		t.Fatalf("found %d float fields, want 10", n)
	}
}
