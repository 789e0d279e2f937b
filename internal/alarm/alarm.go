// Package alarm reproduces Android's AlarmManager substrate as the paper
// describes it (§2.1): alarms with nominal delivery times, window
// intervals, repeating intervals (static or dynamic), wakeup/non-wakeup
// kinds, a queue of entries (batches) of alarms that are delivered
// together, and pluggable alignment policies. The NATIVE policy here is
// Android ≥4.4's window-overlap batching; the paper's SIMTY policy lives
// in internal/core and plugs into the same Policy interface.
package alarm

import (
	"errors"
	"fmt"

	"repro/internal/hw"
	"repro/internal/simclock"
)

// Kind distinguishes wakeup alarms (delivered by waking the device) from
// non-wakeup alarms (delivered only while the device happens to be awake).
type Kind uint8

const (
	// Wakeup alarms awaken the device via the real-time clock.
	Wakeup Kind = iota
	// NonWakeup alarms wait for the device to be awake for another
	// reason; their delivery may be postponed arbitrarily.
	NonWakeup
)

func (k Kind) String() string {
	switch k {
	case Wakeup:
		return "wakeup"
	case NonWakeup:
		return "non-wakeup"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Repeat classifies an alarm's repetition behaviour (§2.1).
type Repeat uint8

const (
	// OneShot alarms are delivered once and removed.
	OneShot Repeat = iota
	// Static repeating alarms have a fixed nominal grid: the next nominal
	// time is the previous nominal plus the repeating interval.
	Static
	// Dynamic repeating alarms reappoint their interval at each delivery:
	// the next nominal time is the delivery time plus the repeating
	// interval.
	Dynamic
)

func (r Repeat) String() string {
	switch r {
	case OneShot:
		return "one-shot"
	case Static:
		return "static"
	case Dynamic:
		return "dynamic"
	}
	return fmt.Sprintf("Repeat(%d)", uint8(r))
}

// Alarm is one registered alarm. An Alarm is owned by the Manager after
// Set and must not be mutated by the registrant while queued.
type Alarm struct {
	// ID uniquely identifies the alarm; re-registering an ID that is
	// still queued replaces it (triggering the realignment path, §2.1).
	ID string
	// App is the registering application, for reporting.
	App string

	Kind   Kind
	Repeat Repeat

	// Nominal is the alarm's nominal delivery time. For repeating alarms
	// the Manager advances it on reinsertion.
	Nominal simclock.Time
	// Period is the repeating interval; zero for one-shot alarms.
	Period simclock.Duration
	// Window is the window interval length (α × Period in the paper's
	// notation): the alarm may be delivered anywhere in
	// [Nominal, Nominal+Window]. Zero means an exact alarm.
	Window simclock.Duration
	// Grace is the grace interval length (β × Period): how far an
	// imperceptible alarm may be postponed (§3.1.2). Must satisfy
	// Window ≤ Grace < Period for repeating alarms.
	Grace simclock.Duration

	// HW is the set of hardware components the alarm wakelocks. It is
	// unknown (empty, HWKnown false) until the first delivery reveals it
	// (§3.1.1 footnote 4): in Android the wakelocked hardware is not
	// declared at registration.
	HW      hw.Set
	HWKnown bool

	// DeclaredDur optionally declares how long the alarm's task will
	// wakelock its hardware. Android has no such registration attribute;
	// the paper proposes adding one so alarms can be aligned by duration
	// similarity (§5). Zero means undeclared. Only the duration-aware
	// policy extension reads it.
	DeclaredDur simclock.Duration

	// OnDeliver is invoked at delivery. It performs the alarm's task
	// (typically via the device model) and returns the hardware set the
	// task wakelocked, which the Manager records as the alarm's learned
	// HW set. A nil OnDeliver delivers with the already-known set.
	OnDeliver func(at simclock.Time) hw.Set

	// Deliveries counts completed deliveries.
	Deliveries int
}

// Perceptible reports whether the alarm must be treated as perceptible
// (§3.1.2): it wakelocks user-perceptible hardware, or its behaviour is
// not yet known — one-shot alarms and alarms that have never been
// delivered are deemed perceptible for completeness (footnote 5).
func (a *Alarm) Perceptible() bool {
	if a.Repeat == OneShot || !a.HWKnown {
		return true
	}
	return a.HW.Perceptible()
}

// WindowEnd is the end of the current window interval.
func (a *Alarm) WindowEnd() simclock.Time { return a.Nominal.Add(a.Window) }

// GraceEnd is the end of the current grace interval. For perceptible
// alarms the effective bound is the window; GraceEnd still reports the
// registered grace attribute.
func (a *Alarm) GraceEnd() simclock.Time { return a.Nominal.Add(a.Grace) }

// Validate checks the alarm's attribute invariants.
func (a *Alarm) Validate() error {
	switch {
	case a.ID == "":
		return errors.New("alarm: empty ID")
	case a.Window < 0 || a.Grace < 0 || a.Period < 0:
		return fmt.Errorf("alarm %s: negative interval", a.ID)
	case a.Grace < a.Window:
		return fmt.Errorf("alarm %s: grace %v smaller than window %v", a.ID, a.Grace, a.Window)
	case a.Repeat == OneShot && a.Period != 0:
		return fmt.Errorf("alarm %s: one-shot with non-zero period", a.ID)
	case a.Repeat != OneShot && a.Period <= 0:
		return fmt.Errorf("alarm %s: repeating with non-positive period", a.ID)
	case a.Repeat != OneShot && a.Window >= a.Period:
		return fmt.Errorf("alarm %s: window %v not smaller than period %v", a.ID, a.Window, a.Period)
	case a.Repeat != OneShot && a.Grace >= a.Period:
		return fmt.Errorf("alarm %s: grace %v not smaller than period %v", a.ID, a.Grace, a.Period)
	}
	return nil
}

// String summarizes the alarm.
func (a *Alarm) String() string {
	return fmt.Sprintf("%s(%s %s %s nominal=%v period=%v window=%v grace=%v hw=%v)",
		a.ID, a.App, a.Kind, a.Repeat, a.Nominal, a.Period, a.Window, a.Grace, a.HW)
}
