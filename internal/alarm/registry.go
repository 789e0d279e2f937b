package alarm

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/simclock"
)

// PolicyContext carries the per-run parameters a policy factory may need.
// Policies that ignore it (every policy in this package) behave
// identically for any context, which keeps the seedless validation
// lookups (fleet specs, HTTP request checking) equivalent to the seeded
// run-time lookup.
type PolicyContext struct {
	// Seed is the run's simulation seed. Seeded policies (SIMTY-J's
	// per-device phase) derive their dedicated RNG streams from it, the
	// same way the simulator derives its wake-latency and push streams.
	Seed int64
	// Activity, when non-nil, describes the user's diurnal activity
	// pattern (apps.DayProfile implements it). Context-aware policies
	// read it to decide when the user is interacting; seed-only
	// policies ignore it, so the seedless validation lookups stay
	// equivalent to run-time lookups.
	Activity ActivityOracle
}

// ActivityOracle exposes the diurnal activity phases a context-aware
// policy keys on. Defined here (rather than importing the workload
// package) so apps can keep depending on alarm without a cycle.
type ActivityOracle interface {
	// ActiveAt reports whether the user is in an active phase at t.
	ActiveAt(t simclock.Time) bool
	// NextActiveStart returns the earliest time ≥ t inside an active
	// phase, or false if the profile has no active phase.
	NextActiveStart(t simclock.Time) (simclock.Time, bool)
}

// Factory constructs a fresh policy instance for one run. PolicyByName
// calls it on every lookup, so a caller may write into the instance it
// gets. A simulation environment keeps an instance that has a
// Reset(PolicyContext) method and is named for its registration, and
// reuses it for later runs of that name: the factory then promises that
// Reset(ctx) leaves the instance as the factory builds it for ctx.
type Factory func(ctx PolicyContext) (Policy, error)

// registry is the global policy table. Policies register under an
// upper-cased key but keep their display name (e.g. "SIMTY-hw2") for
// PolicyNames, matching the report casing the evaluation tables use.
var registry = struct {
	sync.RWMutex
	byKey map[string]Factory
	names []string // display names in registration order
}{byKey: map[string]Factory{}}

// Register adds a named policy factory to the global table. Lookup is
// case-insensitive; the given casing is preserved for PolicyNames.
// Registering a duplicate name (in any casing) or a nil factory is
// rejected — the plug-in contract is that two policies never silently
// shadow each other.
func Register(name string, f Factory) error {
	key := strings.ToUpper(name)
	if key == "" {
		return fmt.Errorf("alarm: Register with empty policy name")
	}
	if f == nil {
		return fmt.Errorf("alarm: Register %q with nil factory", name)
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.byKey[key]; dup {
		return fmt.Errorf("alarm: duplicate policy name %q", name)
	}
	registry.byKey[key] = f
	registry.names = append(registry.names, name)
	return nil
}

// MustRegister is Register for init-time use: a registration conflict in
// a compiled-in policy is a programming error, not a runtime condition.
func MustRegister(name string, f Factory) {
	if err := Register(name, f); err != nil {
		panic(err)
	}
}

// PolicyByName constructs a registered policy, case-insensitively.
func PolicyByName(name string, ctx PolicyContext) (Policy, error) {
	registry.RLock()
	f := registry.byKey[strings.ToUpper(name)]
	registry.RUnlock()
	if f == nil {
		return nil, fmt.Errorf("alarm: unknown policy %q", name)
	}
	return f(ctx)
}

// PolicyNames lists the registered display names in registration order:
// this package's builtins first, then each importing package's policies
// in its init order (internal/core adds the SIMTY family).
func PolicyNames() []string {
	registry.RLock()
	defer registry.RUnlock()
	out := make([]string, len(registry.names))
	copy(out, registry.names)
	return out
}

// The Android-substrate baselines register at package load, before any
// importer's init runs, so they always precede plug-in policies in
// PolicyNames.
func init() {
	MustRegister("NATIVE", func(PolicyContext) (Policy, error) { return Native{}, nil })
	MustRegister("NOALIGN", func(PolicyContext) (Policy, error) { return NoAlign{}, nil })
	MustRegister("INTERVAL", func(PolicyContext) (Policy, error) { return Interval{}, nil })
	MustRegister("DOZE", func(PolicyContext) (Policy, error) { return Doze{}, nil })
}

// Offsetter is an optional Policy extension: a policy that also
// implements Offsetter assigns each entry a delivery-time offset, applied
// by Queue.Insert whenever an alarm lands in the entry. Jitter-spread
// policies use it to shift a device's batch instants by a per-device
// phase without touching batch membership.
type Offsetter interface {
	// EntryOffset returns the delivery-time offset for e, after e's
	// membership was updated. Non-positive means no offset. Offsets are
	// never applied to perceptible entries (their window guarantees are
	// hard, §3.2.2); DeliveryTime enforces that independently.
	EntryOffset(e *Entry) simclock.Duration
}

// Jitter wraps an alignment policy with a fixed per-device phase offset
// on every imperceptible entry — the classic thundering-herd fix
// (deliberate desynchronization): batch membership, and hence the
// device's wakeup count, is exactly the inner policy's, but the batch
// instants shift by Phase, so a fleet of devices whose alarms align onto
// the same instants spreads its synchronized request spike across the
// phase distribution. Perceptible entries are never offset, preserving
// the §3.2.2 window guarantees; imperceptible entries may be delivered
// up to Phase past their grace end (the energy/staleness bound is
// relaxed by at most Phase, which the herd experiment measures as
// GraceLate).
type Jitter struct {
	// Inner makes all batching decisions.
	Inner Policy
	// Phase is this device's delivery-time offset.
	Phase simclock.Duration
}

// Name implements Policy: the inner name with a "-J" suffix.
func (j Jitter) Name() string { return j.Inner.Name() + "-J" }

// Select implements Policy by delegating to the inner policy.
func (j Jitter) Select(entries []*Entry, a *Alarm, now simclock.Time) int {
	return j.Inner.Select(entries, a, now)
}

// EntryOffset implements Offsetter: every imperceptible entry shifts by
// the device phase.
func (j Jitter) EntryOffset(e *Entry) simclock.Duration {
	if e.Perceptible {
		return 0
	}
	return j.Phase
}
