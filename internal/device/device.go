// Package device simulates the mobile device the alarm manager runs on:
// the asleep/awake state machine with its wake transition cost and
// latency, per-component task execution with serialized access to each
// hardware component, and the automatic return to sleep once the device
// is idle. It implements alarm.Host.
package device

import (
	"fmt"
	"math/rand"

	"repro/internal/freelist"
	"repro/internal/hw"
	"repro/internal/power"
	"repro/internal/simclock"
)

type state uint8

const (
	asleep state = iota
	waking
	awake
)

// Device is the simulated phone. It owns the wakelock manager and the
// power accountant so that every energy effect of a policy decision is
// captured in one place.
type Device struct {
	clock   *simclock.Clock
	profile *power.Profile
	acct    power.Accountant
	wl      hw.WakelockManager
	rng     *rand.Rand

	st      state
	session int

	onWake  []func()
	pending []func()

	// nextFree serializes access per component: two tasks needing the
	// same component run back to back (each transfers its own data),
	// while tasks on different components proceed in parallel.
	nextFree [hw.NumComponents]simclock.Time

	tasksActive int
	sleepTimer  simclock.Timer

	// freeTasks recycles task objects whose end event has fired, and
	// Reset every task made. finishWakeFn/dozeFn are the device's own
	// timer callbacks, bound on the first Reset: scheduling a method
	// value would allocate a closure per call.
	freeTasks    freelist.List[task]
	finishWakeFn func()
	dozeFn       func()

	// debounce is the suspend guard: after a wake completes the device
	// will not re-doze within this window (idleCheck stretches its hold
	// accordingly). Zero — the default — leaves the sleep arithmetic
	// exactly as it was, which the golden parity tests rely on.
	debounce simclock.Duration
	lastWake simclock.Time

	// onTask, when set, observes task lifecycle: it is called with
	// start=true when a task's wakelocks are acquired and start=false
	// when they are released. The tag identifies the task's owner, like
	// an Android wakelock tag.
	onTask func(tag string, set hw.Set, start bool)

	// violation, when set, absorbs contract violations (RunTask while
	// asleep, negative durations) instead of panicking; the offending
	// task is dropped.
	violation func(detail string)
}

// New creates a sleeping device with the given power profile. The seed
// drives the stochastic wake latency.
func New(clock *simclock.Clock, profile *power.Profile, seed int64) *Device {
	d := new(Device)
	d.Reset(clock, profile, seed)
	return d
}

// Reset returns the device to New's state — asleep, session 0, no task,
// subscriber or handler, a fresh accountant — on clock, profile and seed.
// It keeps the task pool, the wake lists' arrays, the wake-latency
// source (reseeded) and the bound callbacks, so a device reused across
// simulations skips their warm-up. Tasks still in flight go back to the
// pool: reset their clock first, so that none of their events fires
// again.
func (d *Device) Reset(clock *simclock.Clock, profile *power.Profile, seed int64) {
	if clock == nil || profile == nil {
		panic("device: Reset with nil clock or profile")
	}
	d.freeTasks.Reclaim()
	d.clock, d.profile = clock, profile
	d.acct.Reset(clock, profile)
	d.wl.Reset()
	d.wl.Subscribe(&d.acct)
	d.rng = simclock.Reseed(d.rng, seed)
	d.st, d.session = asleep, 0
	clear(d.onWake)
	d.onWake = d.onWake[:0]
	clear(d.pending)
	d.pending = d.pending[:0]
	d.nextFree = [hw.NumComponents]simclock.Time{}
	d.tasksActive = 0
	d.sleepTimer = simclock.Timer{}
	d.debounce, d.lastWake = 0, 0
	d.onTask, d.violation = nil, nil
	if d.finishWakeFn == nil {
		d.finishWakeFn, d.dozeFn = d.finishWake, d.doze
	}
}

// task is one RunTask call's pair of clock events: acquire at the start,
// release at the end. Task objects are pooled per device and their event
// callbacks are bound once, when the object is first allocated, so a
// steady-state task costs no allocation.
type task struct {
	d              *Device
	tag            string
	set            hw.Set
	startFn, endFn func()
}

func (t *task) start() {
	t.d.wl.Acquire(t.set)
	if t.d.onTask != nil {
		t.d.onTask(t.tag, t.set, true)
	}
}

// end releases the task's wakelocks and returns the task to the pool. The
// end event is always the task's last: it fires after start (scheduled
// later, at an instant no earlier) and nothing cancels either event.
func (t *task) end() {
	d := t.d
	d.wl.Release(t.set)
	if d.onTask != nil {
		d.onTask(t.tag, t.set, false)
	}
	d.tasksActive--
	t.tag = ""
	d.freeTasks.Put(t)
	d.idleCheck()
}

// newTask takes a task from the pool, or allocates one and binds its
// callbacks.
func (d *Device) newTask(tag string, set hw.Set) *task {
	t := d.freeTasks.Get()
	if t == nil {
		t = &task{d: d}
		t.startFn, t.endFn = t.start, t.end
		d.freeTasks.Made(t)
	}
	t.tag, t.set = tag, set
	return t
}

// Accountant exposes the device's energy accountant.
func (d *Device) Accountant() *power.Accountant { return &d.acct }

// Wakelocks exposes the device's wakelock manager (for trace hooks).
func (d *Device) Wakelocks() *hw.WakelockManager { return &d.wl }

// Awake implements alarm.Host: true once the wake transition completed.
func (d *Device) Awake() bool { return d.st == awake }

// Session implements alarm.Host: the identifier of the current (or most
// recent) awake session. Sessions are numbered from 1.
func (d *Device) Session() int { return d.session }

// Wakeups reports the number of sleep→awake transitions so far.
func (d *Device) Wakeups() int { return d.session }

// OnWake implements alarm.Host: fn runs after every completed wake
// transition, before the wake-requesting callbacks.
func (d *Device) OnWake(fn func()) { d.onWake = append(d.onWake, fn) }

// ExecuteWake implements alarm.Host. If the device is awake, fn runs
// immediately; if asleep, the wake transition starts (charging its
// overhead) and fn runs after the stochastic wake latency; if a wake is
// already in progress, fn joins it.
func (d *Device) ExecuteWake(fn func()) {
	if fn == nil {
		panic("device: ExecuteWake with nil callback")
	}
	switch d.st {
	case awake:
		d.cancelSleep()
		fn()
		d.idleCheck()
	case waking:
		d.pending = append(d.pending, fn)
	case asleep:
		d.pending = append(d.pending, fn)
		d.st = waking
		d.session++
		d.acct.SetAwake(true)
		lat := d.wakeLatency()
		d.clock.After(lat, d.finishWakeFn)
	}
}

func (d *Device) wakeLatency() simclock.Duration {
	lo, hi := d.profile.WakeLatencyMin, d.profile.WakeLatencyMax
	if hi <= lo {
		return lo
	}
	return lo + simclock.Duration(d.rng.Int63n(int64(hi-lo)+1))
}

// SetDebounce installs the suspend guard: after each completed wake the
// device stays up for at least d beyond the wake instant, debouncing
// wake/sleep flapping (e.g. under retry storms). Zero disables it.
func (d *Device) SetDebounce(dur simclock.Duration) { d.debounce = dur }

func (d *Device) finishWake() {
	d.st = awake
	d.lastWake = d.clock.Now()
	for _, fn := range d.onWake {
		fn()
	}
	// The device is awake now, so ExecuteWake runs any callback it is
	// handed at once and nothing appends to pending during the loop: the
	// next wake reuses the array.
	for _, fn := range d.pending {
		fn()
	}
	clear(d.pending)
	d.pending = d.pending[:0]
	d.idleCheck()
}

// OnTask installs the task lifecycle observer (e.g. the trace logger).
func (d *Device) OnTask(fn func(tag string, set hw.Set, start bool)) { d.onTask = fn }

// SetViolationHandler routes RunTask contract violations (called while
// the device is not awake, or with a negative duration or delay) to fn
// instead of panicking; the offending task is dropped and the run
// continues. This is the graceful-degradation mode used while a fault
// plan is active: a misbehaving simulated app becomes a recorded fault
// event, not a crashed run. A nil fn restores the default
// panic-on-violation contract, under which a violation is a
// library-internal bug.
func (d *Device) SetViolationHandler(fn func(detail string)) { d.violation = fn }

// RunTask executes an alarm task that wakelocks the given component set
// for dur. Access to each component is serialized, so the task starts at
// the earliest instant every needed component is free. RunTask must be
// called while the device is awake (i.e. from a delivery callback) and
// returns the scheduled start and end times.
func (d *Device) RunTask(set hw.Set, dur simclock.Duration) (start, end simclock.Time) {
	return d.RunTaskTagged("", set, dur)
}

// RunTaskTagged is RunTask with a wakelock tag identifying the task's
// owner, as Android wakelocks carry.
func (d *Device) RunTaskTagged(tag string, set hw.Set, dur simclock.Duration) (start, end simclock.Time) {
	return d.RunTaskDelayed(tag, set, 0, dur)
}

// RunTaskDelayed is RunTaskTagged with an extra pre-start latency,
// modelling a slow handler: the device stays awake while the task waits
// delay before acquiring its wakelocks (on top of any per-component
// serialization). Contract violations panic unless a violation handler
// absorbs them, in which case the task is dropped and both returned
// times are now.
func (d *Device) RunTaskDelayed(tag string, set hw.Set, delay, dur simclock.Duration) (start, end simclock.Time) {
	now := d.clock.Now()
	if d.st != awake {
		if d.violation != nil {
			d.violation(fmt.Sprintf("task %q while device not awake (state %d)", tag, d.st))
			return now, now
		}
		panic(fmt.Sprintf("device: RunTask in state %d (device must be awake)", d.st))
	}
	if dur < 0 || delay < 0 {
		if d.violation != nil {
			d.violation(fmt.Sprintf("task %q with negative duration %v/delay %v", tag, dur, delay))
			return now, now
		}
		panic("device: RunTask with negative duration")
	}
	start = now.Add(delay)
	for _, c := range set.Components() {
		if d.nextFree[c] > start {
			start = d.nextFree[c]
		}
	}
	end = start.Add(dur)
	for _, c := range set.Components() {
		d.nextFree[c] = end
	}
	d.tasksActive++
	d.cancelSleep()
	t := d.newTask(tag, set)
	d.clock.Schedule(start, t.startFn)
	d.clock.Schedule(end, t.endFn)
	return start, end
}

// TasksActive reports the number of tasks scheduled or running.
func (d *Device) TasksActive() int { return d.tasksActive }

func (d *Device) cancelSleep() {
	d.clock.Cancel(d.sleepTimer)
	d.sleepTimer = simclock.Timer{}
}

// idleCheck arms the doze timer: once the device has been idle for the
// profile's AwakeHold, it suspends.
func (d *Device) idleCheck() {
	if d.st != awake || d.tasksActive > 0 || d.sleepTimer.Pending() {
		return
	}
	hold := d.profile.AwakeHold
	if d.debounce > 0 {
		if until := d.lastWake.Add(d.debounce); until > d.clock.Now().Add(hold) {
			hold = until.Sub(d.clock.Now())
		}
	}
	d.sleepTimer = d.clock.After(hold, d.dozeFn)
}

// doze is the doze timer's callback: the device suspends if it is still
// idle.
func (d *Device) doze() {
	d.sleepTimer = simclock.Timer{}
	if d.st == awake && d.tasksActive == 0 {
		d.st = asleep
		d.acct.SetAwake(false)
	}
}
