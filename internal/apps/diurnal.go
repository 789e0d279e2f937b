// Diurnal activity profile: a first-class version of what
// examples/dayinlife used to hardcode. A DayProfile partitions the
// 24-hour day into named phases whose scale factors modulate the
// push-notification and screen-session rates, and whose Active flag
// marks the stretches where the user is plausibly interacting with the
// device (the signal the user-aware policy keys on). The profile is a
// pure description — all randomness stays in the simulator's dedicated
// RNG streams, so a run configured with a profile remains a pure
// function of its seed.
package apps

import (
	"fmt"

	"repro/internal/simclock"
)

// Phase is one contiguous stretch of the day. Start and End are offsets
// from midnight; the phase covers the half-open interval [Start, End).
type Phase struct {
	// Name labels the phase ("night", "morning", ...).
	Name string
	// Start and End bound the phase within the 24 h day.
	Start, End simclock.Duration
	// PushScale and ScreenScale multiply the workload's base
	// pushes-per-hour and screen-sessions-per-hour rates while the
	// phase is current.
	PushScale, ScreenScale float64
	// Active marks phases where the user is awake and interacting;
	// user-aware policies deliver promptly here and defer elsewhere.
	Active bool
}

// Day is the length of one profile cycle.
const Day = 24 * simclock.Hour

// DayProfile is an ordered, gapless cover of [0, 24h). Profiles repeat:
// simulation time t falls in the phase containing t mod 24h.
type DayProfile struct {
	Phases []Phase
}

// DefaultDay returns the canonical profile, matching the shape the
// dayinlife example sketched: a quiet night, a sharp morning ramp, a
// sustained day plateau, a social-peak evening, and wind-down.
func DefaultDay() *DayProfile {
	h := simclock.Hour
	return &DayProfile{Phases: []Phase{
		{Name: "night", Start: 0, End: 7 * h, PushScale: 0.15, ScreenScale: 0.05},
		{Name: "morning", Start: 7 * h, End: 9 * h, PushScale: 1.2, ScreenScale: 1.5, Active: true},
		{Name: "day", Start: 9 * h, End: 18 * h, PushScale: 1.0, ScreenScale: 1.0, Active: true},
		{Name: "evening", Start: 18 * h, End: 23 * h, PushScale: 1.4, ScreenScale: 1.6, Active: true},
		{Name: "winddown", Start: 23 * h, End: 24 * h, PushScale: 0.5, ScreenScale: 0.4},
	}}
}

// Validate checks that the phases tile [0, 24h) exactly, in order, with
// finite non-negative scales.
func (p *DayProfile) Validate() error {
	if p == nil || len(p.Phases) == 0 {
		return fmt.Errorf("diurnal: profile has no phases")
	}
	want := simclock.Duration(0)
	for i, ph := range p.Phases {
		if ph.Start != want {
			return fmt.Errorf("diurnal: phase %d (%s) starts at %v, want %v (phases must tile the day)", i, ph.Name, ph.Start, want)
		}
		if ph.End <= ph.Start {
			return fmt.Errorf("diurnal: phase %d (%s) is empty or reversed [%v,%v)", i, ph.Name, ph.Start, ph.End)
		}
		if badScale(ph.PushScale) || badScale(ph.ScreenScale) {
			return fmt.Errorf("diurnal: phase %d (%s) has invalid scale (push=%v screen=%v)", i, ph.Name, ph.PushScale, ph.ScreenScale)
		}
		want = ph.End
	}
	if want != Day {
		return fmt.Errorf("diurnal: phases end at %v, want %v", want, Day)
	}
	return nil
}

func badScale(s float64) bool {
	// NaN fails both comparisons' complement: s < 0 is false for NaN,
	// so test via self-inequality too.
	return s < 0 || s != s || s > 1e6
}

// At returns the phase containing simulation time t (t mod 24h).
func (p *DayProfile) At(t simclock.Time) Phase {
	o := simclock.Duration(t) % Day
	if o < 0 {
		o += Day
	}
	for _, ph := range p.Phases {
		if o >= ph.Start && o < ph.End {
			return ph
		}
	}
	// Unreachable for validated profiles; fall back to the last phase.
	return p.Phases[len(p.Phases)-1]
}

// ActiveAt reports whether t falls in an active phase.
func (p *DayProfile) ActiveAt(t simclock.Time) bool { return p.At(t).Active }

// NextActiveStart returns the earliest time ≥ t at which an active
// phase is current, and true — or t and false if no phase is active.
func (p *DayProfile) NextActiveStart(t simclock.Time) (simclock.Time, bool) {
	if p.ActiveAt(t) {
		return t, true
	}
	any := false
	for _, ph := range p.Phases {
		if ph.Active {
			any = true
			break
		}
	}
	if !any {
		return t, false
	}
	o := simclock.Duration(t) % Day
	if o < 0 {
		o += Day
	}
	dayStart := t.Add(-o)
	// Scan this day's remaining phases, then wrap to the next day.
	for _, ph := range p.Phases {
		if ph.Active && ph.Start > o {
			return dayStart.Add(ph.Start), true
		}
	}
	for _, ph := range p.Phases {
		if ph.Active {
			return dayStart.Add(Day + ph.Start), true
		}
	}
	return t, false // unreachable: any == true
}

// MaxPushScale and MaxScreenScale return the profile's peak scales —
// the envelope rates the simulator thins candidate events against.
func (p *DayProfile) MaxPushScale() float64 {
	return p.maxScale(func(ph Phase) float64 { return ph.PushScale })
}

// MaxScreenScale returns the peak screen-session scale.
func (p *DayProfile) MaxScreenScale() float64 {
	return p.maxScale(func(ph Phase) float64 { return ph.ScreenScale })
}

func (p *DayProfile) maxScale(f func(Phase) float64) float64 {
	max := 0.0
	for _, ph := range p.Phases {
		if v := f(ph); v > max {
			max = v
		}
	}
	return max
}
