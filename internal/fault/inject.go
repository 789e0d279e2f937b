package fault

import (
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/alarm"
	"repro/internal/hw"
	"repro/internal/simclock"
)

// leakDur is the "never released" hold: past any simulation horizon
// (matching apps.Spec.NoSleepBug's modelling of the same bug).
const leakDur = 100000 * simclock.Hour

// rngStream offsets the injector's RNG stream away from the simulator's
// own streams (seed+1 apps, seed+2 pushes, seed+3 screen sessions).
const rngStream = 101

// Injector applies one Plan to one run. It implements the fault hooks
// the application runtime consults (apps.FaultInjector) plus the storm
// scheduler and the violation sink the device and wakelock manager
// report into. An Injector is single-run, single-goroutine state — the
// simulation itself is single-threaded — and must not be shared across
// parallel runs; share the Plan instead. Reset readies it for the next
// run in place, so a simulation environment keeps one for good.
type Injector struct {
	plan  Plan
	clock *simclock.Clock
	rng   *rand.Rand

	// leaks maps a leaking app to its state in states.
	leaks      map[string]int
	states     []leakState
	jitterApps map[string]bool // empty = every app
	skews      map[string]simclock.Duration
	skewed     map[string]bool

	events []Event
	// OnEvent, when non-nil, mirrors each recorded event (typically into
	// the run's trace logger as an EventFault).
	OnEvent func(Event)
}

type leakState struct {
	leak      Leak
	delivered int
	triggered bool
}

// Reset readies the injector for a run of plan p, which must have passed
// Validate against the run's workload. seed is the run's scenario seed;
// the injector derives its own RNG stream from it so fault randomness
// never perturbs the workload's phases, wake latencies, or Poisson
// processes. The injector keeps its maps, its source (reseeded) and its
// log's array from the runs before, and starts with an empty log and no
// OnEvent: the zero Injector after Reset and a reused one after Reset
// are the same injector.
func (in *Injector) Reset(p Plan, seed int64, clock *simclock.Clock) {
	in.plan, in.clock = p, clock
	in.rng = simclock.Reseed(in.rng, seed+rngStream)
	clear(in.events)
	in.events, in.OnEvent = in.events[:0], nil

	if in.leaks == nil {
		in.leaks, in.jitterApps = map[string]int{}, map[string]bool{}
		in.skews, in.skewed = map[string]simclock.Duration{}, map[string]bool{}
	}
	clear(in.leaks)
	in.states = in.states[:0]
	for _, l := range p.Leaks {
		in.leaks[l.App] = len(in.states)
		in.states = append(in.states, leakState{leak: l})
	}
	clear(in.jitterApps)
	for _, a := range p.Jitter.Apps {
		in.jitterApps[a] = true
	}
	clear(in.skews)
	clear(in.skewed)
	for _, s := range p.Skews {
		in.skews[s.App] = s.Offset
	}
}

// AppendEvents appends the fault events recorded so far, in simulation
// order, to dst and returns the extended slice: a copy, so callers may
// mutate or sort it without corrupting the injector's own log.
func (in *Injector) AppendEvents(dst []Event) []Event {
	return append(dst, in.events...)
}

func (in *Injector) record(app, kind, detail string) {
	e := Event{At: in.clock.Now(), App: app, Kind: kind, Detail: detail}
	in.events = append(in.events, e)
	if in.OnEvent != nil {
		in.OnEvent(e)
	}
}

// InstallSkew implements the install-time hook: the clock-skew offset
// added to app's first nominal time. Recorded once per app.
func (in *Injector) InstallSkew(app string) simclock.Duration {
	off, ok := in.skews[app]
	if !ok {
		return 0
	}
	if !in.skewed[app] {
		in.skewed[app] = true
		in.record(app, "skew", fmt.Sprintf("schedule skewed by %v", off))
	}
	return off
}

// PerturbTask implements the delivery-time hook: given the task's
// nominal duration it returns an extra pre-task latency and the
// possibly faulted duration. Leaks override jitter — a never-released
// wakelock has no meaningful overrun on top.
func (in *Injector) PerturbTask(app string, dur simclock.Duration) (delay, out simclock.Duration) {
	out = dur
	j := in.plan.Jitter
	if j.enabled() && (len(j.Apps) == 0 || in.jitterApps[app]) {
		if j.MaxDelay > 0 {
			delay = simclock.Duration(in.rng.Int63n(int64(j.MaxDelay) + 1))
		}
		if j.OverrunProb > 0 && in.rng.Float64() < j.OverrunProb {
			f := j.OverrunFactor
			if f == 0 {
				f = DefaultOverrunFactor
			}
			out = simclock.Duration(float64(out) * f)
			in.record(app, "overrun", fmt.Sprintf("task stretched %v → %v", dur, out))
		}
	}
	if k, ok := in.leaks[app]; ok {
		ls := &in.states[k]
		ls.delivered++
		if ls.delivered > ls.leak.AfterDeliveries {
			switch ls.leak.Mode {
			case LeakNever:
				out = leakDur
			case LeakLate:
				extra := ls.leak.Extra
				if extra == 0 {
					extra = DefaultLeakExtra
				}
				out += extra
			}
			if !ls.triggered {
				ls.triggered = true
				in.record(app, "leak", leakDetail(ls.leak.Mode, ls.delivered))
			}
		}
	}
	return delay, out
}

// leakDetail is the detail of the event a leak records when it
// triggers on delivery n. A leak that triggers on its first delivery,
// as every leak with the default AfterDeliveries does, takes it from
// firstLeaks and builds no string.
func leakDetail(m LeakMode, n int) string {
	if n == 1 && int(m) < len(firstLeaks) {
		return firstLeaks[m]
	}
	return formatLeak(m, n)
}

var firstLeaks = [...]string{LeakNever: formatLeak(LeakNever, 1), LeakLate: formatLeak(LeakLate, 1)}

func formatLeak(m LeakMode, n int) string {
	return "wakelock " + m.String() + " from delivery " + strconv.Itoa(n)
}

// stormTaskDur is the CPU busywork one storm delivery performs.
const stormTaskDur = 200 * simclock.Millisecond

// StartStorms registers every planned alarm storm. Each storm is an
// exact one-shot wakeup alarm that re-registers itself Period after
// every delivery through the manager's full Set path — the runaway
// retry-loop pattern. runTask executes the storm's busywork while the
// device is awake (typically device.RunTaskTagged with an empty
// hardware set).
func (in *Injector) StartStorms(mgr *alarm.Manager, runTask func(tag string, dur simclock.Duration)) error {
	for _, s := range in.plan.Storms {
		if err := in.startStorm(s, mgr, runTask); err != nil {
			return err
		}
	}
	return nil
}

func (in *Injector) startStorm(s Storm, mgr *alarm.Manager, runTask func(tag string, dur simclock.Duration)) error {
	st := &storm{Storm: s, in: in, mgr: mgr, runTask: runTask, id: s.App + ".storm"}
	if st.Period == 0 {
		st.Period = DefaultStormPeriod
	}
	st.deliverFn = st.deliver
	start := s.Start
	if start < in.clock.Now() {
		start = in.clock.Now()
	}
	if start == 0 {
		start = in.clock.Now().Add(st.Period)
	}
	if err := st.register(start); err != nil {
		return fmt.Errorf("fault: storm %q: %w", s.App, err)
	}
	in.record(s.App, "storm", fmt.Sprintf("alarm storm every %v from %v", st.Period, start))
	return nil
}

// storm is one running alarm storm. Its delivery callback is bound once
// and it alternates between two alarms: the manager builds a delivered
// alarm's record after its callback returns, so the callback registers
// the other one.
type storm struct {
	Storm     // Period defaulted
	in        *Injector
	mgr       *alarm.Manager
	runTask   func(tag string, dur simclock.Duration)
	id        string
	delivered int
	alarms    [2]alarm.Alarm
	next      int // the alarm register writes next
	deliverFn func(simclock.Time) hw.Set
}

// register writes the next alarm whole and sets it to fire at at.
func (st *storm) register(at simclock.Time) error {
	a := &st.alarms[st.next]
	st.next ^= 1
	*a = alarm.Alarm{
		ID:        st.id,
		App:       st.App,
		Kind:      alarm.Wakeup,
		Repeat:    alarm.OneShot,
		Nominal:   at,
		OnDeliver: st.deliverFn,
	}
	return st.mgr.Set(a)
}

func (st *storm) deliver(now simclock.Time) hw.Set {
	st.runTask(st.id, stormTaskDur)
	st.delivered++
	if st.Count > 0 && st.delivered >= st.Count {
		return 0
	}
	// Re-register through the full Set path: this is the storm's point —
	// queue churn, not just deliveries.
	if err := st.register(now.Add(st.Period)); err != nil {
		// Registration of a future exact alarm cannot fail validation;
		// record rather than crash if it ever does.
		st.in.record(st.App, "violation", fmt.Sprintf("storm re-register: %v", err))
	}
	return 0
}

// RecordViolation absorbs a runtime contract violation (a would-be
// panic from the wakelock manager or device) as a fault event. source
// names the reporting subsystem.
func (in *Injector) RecordViolation(source, detail string) {
	in.record("", "violation", source+": "+detail)
}
