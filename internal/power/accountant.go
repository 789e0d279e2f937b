package power

import (
	"fmt"

	"repro/internal/hw"
	"repro/internal/simclock"
)

// Breakdown is the integrated energy of a run, split the way the paper's
// Figure 3 reports it: the sleep-mode floor versus everything that keeps
// the device awake (baseline awake draw, wake transitions, and the
// wakelocked components).
type Breakdown struct {
	// SleepMJ is the energy drawn by the sleep-mode baseline over the
	// whole run (it accrues during awake periods too: the sleep rail
	// never turns off).
	SleepMJ float64
	// AwakeBaseMJ is the application processor's awake baseline energy.
	AwakeBaseMJ float64
	// WakeTransitionsMJ is the total resume-transition overhead.
	WakeTransitionsMJ float64
	// ComponentMJ is the per-component energy (activation + active-time).
	ComponentMJ [hw.NumComponents]float64
	// WakeTransitions counts sleep→awake transitions.
	WakeTransitions int
	// AwakeTime is the total time spent awake.
	AwakeTime simclock.Duration
	// Elapsed is the run horizon covered by this breakdown.
	Elapsed simclock.Duration
}

// AwakeMJ is the total energy attributable to being awake: everything
// except the always-on sleep floor. This is the quantity the paper says
// SIMTY cuts by more than 33%.
func (b Breakdown) AwakeMJ() float64 {
	t := b.AwakeBaseMJ + b.WakeTransitionsMJ
	for _, e := range b.ComponentMJ {
		t += e
	}
	return t
}

// TotalMJ is the total energy of the run.
func (b Breakdown) TotalMJ() float64 { return b.SleepMJ + b.AwakeMJ() }

// AveragePowerMW is the mean power over the run horizon.
func (b Breakdown) AveragePowerMW() float64 {
	if b.Elapsed <= 0 {
		return 0
	}
	return b.TotalMJ() / b.Elapsed.Seconds()
}

// String summarizes the breakdown.
func (b Breakdown) String() string {
	return fmt.Sprintf("total %.0f mJ (sleep %.0f, awake-base %.0f, wake-trans %.0f×%d, components %.0f)",
		b.TotalMJ(), b.SleepMJ, b.AwakeBaseMJ, b.WakeTransitionsMJ, b.WakeTransitions,
		b.AwakeMJ()-b.AwakeBaseMJ-b.WakeTransitionsMJ)
}

// Accountant integrates the device's piecewise-constant power signal over
// virtual time. It implements hw.TransitionListener so it can be
// subscribed to a WakelockManager, and additionally tracks the device
// awake state and component power tails.
type Accountant struct {
	clock   *simclock.Clock
	profile *Profile

	awake      bool
	awakeSince simclock.Time
	lastUpdate simclock.Time

	// powered tracks whether each component is drawing power (held or in
	// its tail); tailEvents holds the pending tail-expiry timer if any,
	// and tailFns the expiry callback, bound on the component's first tail.
	powered    [hw.NumComponents]bool
	poweredAt  [hw.NumComponents]simclock.Time
	tailEvents [hw.NumComponents]simclock.Timer
	tailFns    [hw.NumComponents]func()

	b Breakdown
}

// Reset starts the accountant over: integrating from the clock's current
// time, with the device asleep, every component off and the breakdown
// zero. The zero Accountant must be Reset before use. A tail timer still
// pending from earlier use is abandoned, not cancelled: reset the clock
// too.
func (a *Accountant) Reset(clock *simclock.Clock, profile *Profile) {
	if clock == nil || profile == nil {
		panic("power: Reset with nil clock or profile")
	}
	// The tail callbacks stay bound: they close over a, not over the run.
	*a = Accountant{clock: clock, profile: profile, lastUpdate: clock.Now(), tailFns: a.tailFns}
}

// advance integrates all time-proportional draws up to now.
func (a *Accountant) advance() {
	now := a.clock.Now()
	dt := now.Sub(a.lastUpdate)
	if dt <= 0 {
		return
	}
	sec := dt.Seconds()
	a.b.SleepMJ += a.profile.SleepMW * sec
	if a.awake {
		a.b.AwakeBaseMJ += a.profile.AwakeBaseMW * sec
		a.b.AwakeTime += dt
	}
	for c := 0; c < hw.NumComponents; c++ {
		if a.powered[c] {
			a.b.ComponentMJ[c] += a.profile.Components[c].ActiveMW * sec
		}
	}
	a.lastUpdate = now
}

// SetAwake records a device awake/asleep transition. A sleep→awake
// transition charges the resume overhead.
func (a *Accountant) SetAwake(awake bool) {
	if awake == a.awake {
		return
	}
	a.advance()
	a.awake = awake
	if awake {
		a.b.WakeTransitionsMJ += a.profile.WakeTransitionMJ
		a.b.WakeTransitions++
		a.awakeSince = a.clock.Now()
	}
}

// ComponentOn implements hw.TransitionListener. Turning a component on
// pays its activation overhead unless the component is still in its tail
// period from a previous use.
func (a *Accountant) ComponentOn(c hw.Component) {
	a.advance()
	if a.tailEvents[c].Pending() {
		a.clock.Cancel(a.tailEvents[c])
		a.tailEvents[c] = simclock.Timer{}
		return // still powered from the tail: no activation, no state change
	}
	if a.powered[c] {
		return
	}
	a.powered[c] = true
	a.poweredAt[c] = a.clock.Now()
	a.b.ComponentMJ[c] += a.profile.Components[c].ActivationMJ
}

// ComponentOff implements hw.TransitionListener. The component keeps
// drawing power for its tail duration; a re-acquisition within the tail
// cancels the expiry.
func (a *Accountant) ComponentOff(c hw.Component) {
	a.advance()
	if !a.powered[c] {
		return
	}
	tail := a.profile.Components[c].Tail
	if tail <= 0 {
		a.powered[c] = false
		return
	}
	if a.tailFns[c] == nil {
		a.tailFns[c] = func() { a.tailExpired(c) }
	}
	a.tailEvents[c] = a.clock.After(tail, a.tailFns[c])
}

// tailExpired powers component c down at the end of its tail.
func (a *Accountant) tailExpired(c hw.Component) {
	a.advance()
	a.powered[c] = false
	a.tailEvents[c] = simclock.Timer{}
}

// CurrentPowerMW reports the instantaneous power draw, as a Monsoon-style
// monitor would sample it.
func (a *Accountant) CurrentPowerMW() float64 {
	p := a.profile.SleepMW
	if a.awake {
		p += a.profile.AwakeBaseMW
	}
	for c := 0; c < hw.NumComponents; c++ {
		if a.powered[c] {
			p += a.profile.Components[c].ActiveMW
		}
	}
	return p
}

// Snapshot integrates up to the clock's current time and returns a copy
// of the breakdown.
func (a *Accountant) Snapshot() Breakdown {
	a.advance()
	b := a.b
	b.Elapsed = a.clock.Now().Sub(0)
	return b
}

// StandbyHours projects how long the profile's battery would last at the
// run's average power. The paper's headline result — standby time
// extended by one-fourth to one-third — is the ratio of this projection
// between SIMTY and NATIVE.
func (p *Profile) StandbyHours(b Breakdown) float64 {
	avg := b.AveragePowerMW()
	if avg <= 0 {
		return 0
	}
	return p.BatteryMJ / avg / 3600
}
