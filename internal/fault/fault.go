// Package fault models the misbehaving-workload failure modes the
// paper's introduction surveys (§1): no-sleep bugs where a wakelock is
// acquired and never (or too late) released [3,6,11], runaway apps that
// re-register short-period alarms, handlers whose latency and task
// durations blow past their declared behaviour, and apps whose clocks
// disagree with the device's.
//
// A Plan is a pure description of the faults to inject; an Injector is
// the per-run state machine that applies one Plan deterministically.
// Everything the injector randomizes is driven by a dedicated RNG
// stream derived from the run seed, so two runs with the same seed and
// the same plan misbehave identically — the property the anomaly
// detector's regression tests rely on.
package fault

import (
	"fmt"

	"repro/internal/simclock"
)

// LeakMode classifies a wakelock leak (the no-sleep bug taxonomy of
// Pathak et al.: never-released vs released too late).
type LeakMode uint8

const (
	// LeakNever: once triggered, the app's task acquires its wakelocks
	// and never releases them within any simulation horizon.
	LeakNever LeakMode = iota
	// LeakLate: the release comes, but Extra past the nominal duration.
	LeakLate
)

func (m LeakMode) String() string {
	switch m {
	case LeakNever:
		return "never-released"
	case LeakLate:
		return "held-too-long"
	}
	return fmt.Sprintf("LeakMode(%d)", uint8(m))
}

// DefaultLeakExtra is the extra hold of a LeakLate leak when Extra is
// zero: 5 minutes, far beyond the anomaly detector's 60 s threshold.
const DefaultLeakExtra = 5 * simclock.Minute

// Leak injects a wakelock leak into one installed app.
type Leak struct {
	// App names the app (its Spec.Name) whose task leaks.
	App string
	// Mode selects never-released or released-too-late behaviour.
	Mode LeakMode
	// AfterDeliveries is how many deliveries behave correctly before
	// the leak triggers (0 = the very first delivery leaks).
	AfterDeliveries int
	// Extra is the extra hold for LeakLate; zero means DefaultLeakExtra.
	Extra simclock.Duration
}

// DefaultStormPeriod is the re-registration period of a storm when
// Period is zero: 5 s, far below any legitimate Table 3 interval.
const DefaultStormPeriod = 5 * simclock.Second

// Storm models a runaway app re-registering a short-period exact
// wakeup alarm: each delivery re-registers the alarm Period later
// through the manager's full Set path (exercising replacement and
// realignment), so the queue churns exactly as it would under a buggy
// app caught in a retry loop.
type Storm struct {
	// App labels the misbehaving app. It need not exist in the
	// workload: the storm registers its own alarm named App+".storm".
	App string
	// Start is when the first storm alarm is registered; zero means one
	// Period after the run begins.
	Start simclock.Time
	// Period is the re-registration interval; zero means
	// DefaultStormPeriod.
	Period simclock.Duration
	// Count bounds the number of storm deliveries; zero means the storm
	// rages until the run ends.
	Count int
}

// Jitter perturbs task service: a uniform pre-task latency (a slow
// handler holding the device awake before its wakelocks are even
// acquired) and stochastic task overruns (network conditions stretching
// a transfer far past its nominal duration).
type Jitter struct {
	// Apps restricts the jitter to the named apps; empty means every
	// installed app.
	Apps []string
	// MaxDelay is the largest pre-task latency; each delivery draws
	// uniformly from [0, MaxDelay].
	MaxDelay simclock.Duration
	// OverrunProb is the per-delivery probability of a task overrun.
	OverrunProb float64
	// OverrunFactor multiplies the task duration on an overrun; zero
	// means 10×.
	OverrunFactor float64
}

// DefaultOverrunFactor is used when Jitter.OverrunFactor is zero.
const DefaultOverrunFactor = 10

func (j Jitter) enabled() bool { return j.MaxDelay > 0 || j.OverrunProb > 0 }

// Skew offsets one app's schedule: its first nominal time shifts by
// Offset beyond the normal phase stagger, modelling an app whose alarm
// registration clock disagrees with the device's.
type Skew struct {
	App    string
	Offset simclock.Duration
}

// Plan is a deterministic, seed-driven fault-injection plan. The zero
// Plan injects nothing. Plans are pure values: an Injector copies the
// plan and never mutates it, so one Plan may be shared across a whole
// batch of runs.
type Plan struct {
	Leaks  []Leak
	Storms []Storm
	Jitter Jitter
	Skews  []Skew
}

// Empty reports whether the plan injects any fault at all.
func (p Plan) Empty() bool {
	return len(p.Leaks) == 0 && len(p.Storms) == 0 && !p.Jitter.enabled() && len(p.Skews) == 0
}

// Validate checks the plan's invariants. installed lists the app names
// of the run's workload; leaks, skews, and jitter targets must name
// installed apps (a fault against a missing app would silently inject
// nothing — a misconfigured experiment, not a fault model).
func (p Plan) Validate(installed []string) error {
	have := make(map[string]bool, len(installed))
	for _, n := range installed {
		have[n] = true
	}
	seen := map[string]bool{}
	for i, l := range p.Leaks {
		if l.App == "" {
			return fmt.Errorf("fault: leak %d: empty app", i)
		}
		if !have[l.App] {
			return fmt.Errorf("fault: leak %d targets %q, not in the workload", i, l.App)
		}
		if seen[l.App] {
			return fmt.Errorf("fault: duplicate leak for %q", l.App)
		}
		seen[l.App] = true
		if l.AfterDeliveries < 0 {
			return fmt.Errorf("fault: leak %d: negative AfterDeliveries", i)
		}
		if l.Extra < 0 {
			return fmt.Errorf("fault: leak %d: negative Extra", i)
		}
	}
	for i, s := range p.Storms {
		if s.App == "" {
			return fmt.Errorf("fault: storm %d: empty app", i)
		}
		if s.Period < 0 {
			return fmt.Errorf("fault: storm %d: negative period", i)
		}
		if s.Count < 0 {
			return fmt.Errorf("fault: storm %d: negative count", i)
		}
		if s.Start < 0 {
			return fmt.Errorf("fault: storm %d: negative start", i)
		}
	}
	if p.Jitter.MaxDelay < 0 {
		return fmt.Errorf("fault: negative jitter delay %v", p.Jitter.MaxDelay)
	}
	if p.Jitter.OverrunProb < 0 || p.Jitter.OverrunProb > 1 {
		return fmt.Errorf("fault: overrun probability %v outside [0,1]", p.Jitter.OverrunProb)
	}
	if p.Jitter.OverrunFactor < 0 {
		return fmt.Errorf("fault: negative overrun factor %v", p.Jitter.OverrunFactor)
	}
	for i, a := range p.Jitter.Apps {
		if !have[a] {
			return fmt.Errorf("fault: jitter target %d (%q) not in the workload", i, a)
		}
	}
	seenSkew := map[string]bool{}
	for i, s := range p.Skews {
		if s.App == "" {
			return fmt.Errorf("fault: skew %d: empty app", i)
		}
		if !have[s.App] {
			return fmt.Errorf("fault: skew %d targets %q, not in the workload", i, s.App)
		}
		if seenSkew[s.App] {
			return fmt.Errorf("fault: duplicate skew for %q", s.App)
		}
		seenSkew[s.App] = true
	}
	return nil
}

// Event records one injected fault or one absorbed runtime violation,
// in simulation order. The stream is deterministic for a fixed
// (seed, plan) pair.
type Event struct {
	// At is the virtual time the fault took effect.
	At simclock.Time
	// App is the app the fault is attributed to ("" for violations
	// without an owner).
	App string
	// Kind classifies the event: "leak", "storm", "overrun", "skew",
	// or "violation".
	Kind string
	// Detail is a human-readable description.
	Detail string
}

func (e Event) String() string {
	return fmt.Sprintf("%v %s[%s]: %s", e.At, e.Kind, e.App, e.Detail)
}
