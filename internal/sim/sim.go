// Package sim assembles the full connected-standby experiment: a virtual
// clock, a simulated device with its power accountant, an alarm manager
// running a chosen alignment policy, and the paper's application
// workloads. One Run reproduces one bar of the paper's evaluation; the
// comparison helpers compute the headline quantities (energy savings,
// standby-time extension).
package sim

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/alarm"
	"repro/internal/apps"
	"repro/internal/backend"

	// Pulled in for its policy registrations: core's init adds the SIMTY
	// family to the alarm registry that PolicyByName resolves against.
	_ "repro/internal/core"

	"repro/internal/fault"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/power"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// DefaultBeta is the grace factor the paper's experiments use (§4.1).
const DefaultBeta = 0.96

// DefaultDuration is the paper's 3-hour connected-standby horizon.
const DefaultDuration = 3 * simclock.Duration(simclock.Hour)

// Config describes one simulation run.
type Config struct {
	// Name labels the run in reports.
	Name string
	// Policy is the alignment policy: NATIVE, NOALIGN, SIMTY, SIMTY-hw2,
	// SIMTY-hw4, or SIMTY-DUR.
	Policy string
	// Custom, when non-nil, overrides Policy with a caller-provided
	// alignment policy implementing alarm.Policy.
	Custom alarm.Policy
	// Workload is the installed application set (see package apps).
	Workload []apps.Spec
	// SystemAlarms adds the background system-service population that
	// the paper's CPU wakeup counts include.
	SystemAlarms bool
	// OneShots schedules this many sporadic one-shot alarms across the
	// horizon.
	OneShots int
	// Duration is the connected-standby horizon (default 3 h).
	Duration simclock.Duration
	// Beta is the grace factor β, in (0, 1) (default 0.96): an alarm's
	// grace interval is β × its period. Only similarity-based policies
	// read grace intervals, but the attribute is always set.
	Beta float64
	// Seed drives phase stagger, wake latency, and one-shot times.
	Seed int64
	// Profile is the device power model; nil selects power.Nexus5.
	Profile *power.Profile
	// PushesPerHour models externally caused wakeups — Google Cloud
	// Messaging pushes or the user pressing the power button. The paper's
	// footnote 1 notes GCM handles external messages and is orthogonal to
	// AlarmManager: pushes are not subject to the alignment policy, but
	// they wake the device (receiving a message over Wi-Fi) and due
	// non-wakeup alarms are flushed on them. Arrivals are Poisson.
	PushesPerHour float64
	// TaskJitter randomizes task durations within ±TaskJitter×nominal,
	// modelling varying network conditions. Must lie in [0, 1).
	TaskJitter float64
	// ScreenSessionsPerHour models the user turning the screen on
	// (Poisson arrivals); each session keeps the screen lit for 30 s.
	// Screen-on periods end connected standby momentarily: the device
	// is awake, so due non-wakeup alarms flush.
	ScreenSessionsPerHour float64
	// ZeroWakeLatency removes the stochastic resume latency (ablation:
	// the paper attributes NATIVE's 0.4–0.6% imperceptible delay to it).
	ZeroWakeLatency bool
	// DisableRealign turns off the native realignment-on-reinsert.
	DisableRealign bool
	// CollectTrace attaches a trace.Logger to the run.
	CollectTrace bool
	// NoTrace is the fleet fast mode: the run retains no delivery
	// records and attaches no trace — Result.Records and Result.Trace
	// are nil — while every derived metric (Energy, StandbyHours,
	// Delays, Wakeups, SpkVib, Guarantees) is computed streaming, record
	// by record, through the same accumulators the retained path uses,
	// so the numbers are bit-identical in both modes. Mutually exclusive
	// with CollectTrace.
	NoTrace bool
	// Faults, when non-nil, injects the plan's failure modes (wakelock
	// leaks, alarm storms, task jitter/overruns, clock skew) into the
	// run. Injection is deterministic per (Seed, plan): repeating a run
	// reproduces the same misbehaviour event for event. The plan is
	// never mutated, so one plan value may be shared across a batch.
	Faults *fault.Plan
	// Backend, when non-nil, enables the backend co-simulation: the
	// device pays a reconnect latency after every wake, every delivered
	// Wi-Fi alarm issues a backend request, client-shed requests retry
	// with capped exponential backoff, and the suspend guard debounces
	// re-doze — all drawn from the dedicated RNG streams seed+5/+6, so a
	// nil Backend remains byte-identical to the pre-backend simulator
	// (the golden parity tests pin it). The model is never mutated and
	// may be shared across a fleet.
	Backend *backend.Model
	// AlignedPhases installs every app at phase offset = its period
	// instead of a random stagger: devices sharing a catalog then share
	// period grids, the synchronized-fleet scenario (reboot or update
	// wave) whose backend spike the herd experiment measures.
	AlignedPhases bool
	// Diurnal, when non-nil, modulates the push and screen-session
	// rates by the profile's phase scales (the rates above become the
	// 1.0-scale baselines) and is handed to context-aware policies as
	// their activity oracle. Candidate events are drawn at the
	// profile's peak rate and thinned per phase on the same RNG
	// streams, so a nil profile remains byte-identical to the
	// pre-diurnal simulator (the golden parity tests pin it).
	Diurnal *apps.DayProfile
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Duration == 0 {
		c.Duration = DefaultDuration
	}
	if c.Beta == 0 {
		c.Beta = DefaultBeta
	}
	if c.Policy == "" {
		c.Policy = "NATIVE"
	}
	return c
}

// Validate checks the configuration exactly as Run would after applying
// defaults, without running anything. It lets request-accepting surfaces
// (the HTTP API) reject a bad spec up front instead of admitting a run
// that is doomed to fail.
func (c Config) Validate() error {
	return c.withDefaults().validate()
}

func (c Config) validate() error {
	// NaN escapes every ordered comparison below (NaN < 0 is false), so
	// finiteness is its own check: a NaN rate or factor must surface as
	// a config error, not as undefined Poisson gaps deep inside a run.
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"beta", c.Beta},
		{"push rate", c.PushesPerHour},
		{"screen-session rate", c.ScreenSessionsPerHour},
		{"task jitter", c.TaskJitter},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("sim: non-finite %s %v", f.name, f.v)
		}
	}
	switch {
	case c.Duration <= 0:
		return fmt.Errorf("sim: non-positive duration %v", c.Duration)
	case c.Beta <= 0 || c.Beta >= 1:
		return fmt.Errorf("sim: grace factor beta %v outside (0, 1)", c.Beta)
	case len(c.Workload) == 0 && !c.SystemAlarms && c.OneShots == 0:
		return fmt.Errorf("sim: empty workload")
	case c.OneShots < 0:
		return fmt.Errorf("sim: negative one-shot count")
	case c.PushesPerHour < 0:
		return fmt.Errorf("sim: negative push rate")
	case c.ScreenSessionsPerHour < 0:
		return fmt.Errorf("sim: negative screen-session rate")
	case c.TaskJitter < 0 || c.TaskJitter >= 1:
		return fmt.Errorf("sim: task jitter %v outside [0,1)", c.TaskJitter)
	case c.NoTrace && c.CollectTrace:
		return fmt.Errorf("sim: NoTrace and CollectTrace are mutually exclusive")
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(c.installs); err != nil {
			return err
		}
	}
	if c.Backend != nil {
		if err := c.Backend.Validate(); err != nil {
			return err
		}
	}
	if c.Diurnal != nil {
		if err := c.Diurnal.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// installs reports whether the workload installs an app named app.
func (c Config) installs(app string) bool {
	for i := range c.Workload {
		if c.Workload[i].Name == app {
			return true
		}
	}
	return false
}

// PolicyByName constructs an alignment policy from its report name via
// the alarm package's plug-in registry (importing this package pulls in
// internal/core, whose init registers the SIMTY family). The lookup uses
// a zero PolicyContext, which suits every seed-independent policy; the
// run path resolves seeded policies (SIMTY-J) through the registry with
// the run's seed.
func PolicyByName(name string) (alarm.Policy, error) {
	return alarm.PolicyByName(name, alarm.PolicyContext{})
}

// CheckPolicy validates a policy name against the same registry,
// SIMTY family included, without building the policy: the check every
// surface that accepts a policy name runs up front.
func CheckPolicy(name string) error { return alarm.CheckPolicy(name) }

// PolicyNames lists the recognized policy names in registration order.
func PolicyNames() []string { return alarm.PolicyNames() }

// Result is the outcome of one run.
type Result struct {
	Config       Config
	PolicyName   string
	Energy       power.Breakdown
	StandbyHours float64
	// Records is the full delivery stream, nil when Config.NoTrace is
	// set (the metrics below are streamed instead of derived from it).
	Records []alarm.Record
	// Delays covers the workload's application alarms only — Figure 4's
	// population. DelaysAll additionally includes system and one-shot
	// alarms.
	Delays    metrics.DelayStats
	DelaysAll metrics.DelayStats
	Wakeups   metrics.Breakdown
	SpkVib    metrics.Row
	// Guarantees carries the per-run delivery-guarantee counters the
	// fleet layer folds (computed streaming, identical in NoTrace and
	// retained modes).
	Guarantees metrics.Guarantees
	// WakeGaps is the spacing between wakeup-session starts, streamed
	// so it survives NoTrace (equals metrics.WakeupGaps(Records) when
	// records are retained).
	WakeGaps metrics.IntervalStats
	// AoI is the Age-of-Information summary over the workload's
	// application alarms (streamed, so it survives NoTrace): how stale
	// each app's data ran between deliveries.
	AoI   metrics.AoIStats
	Trace *trace.Logger
	// FinalWakeups is the device's total sleep→awake transition count
	// (matches Energy.WakeTransitions).
	FinalWakeups int
	// Pushes is the number of external (GCM-style) wakeups that arrived.
	Pushes int
	// FaultEvents is the deterministic log of injected faults and
	// absorbed runtime violations (empty when Config.Faults is nil).
	FaultEvents []fault.Event
	// Backend carries the backend co-simulation counters and this run's
	// request-arrival histogram (nil when Config.Backend is nil).
	Backend *backend.DeviceStats
	// Wall is the real (host) time the run took, for harness-scaling
	// reports. It is the only field that varies between repeats of the
	// same Config.
	Wall time.Duration
}

// Run executes one simulation and computes all derived metrics.
func Run(cfg Config) (*Result, error) { return RunContext(context.Background(), cfg) }

// RunContext is Run stopped, with ctx's error, once ctx ends: it looks
// at ctx after each simulated hour.
func RunContext(ctx context.Context, cfg Config) (*Result, error) { return runInto(ctx, cfg, nil) }

// runInto is RunContext filling res, a Result an earlier run filled, or
// a fresh one when res is nil (env.result).
func runInto(ctx context.Context, cfg Config, res *Result) (*Result, error) {
	start := time.Now()
	env := getEnv()
	res, err := env.runInto(ctx, cfg, res)
	if err != nil {
		return nil, err
	}
	env.release()
	res.Wall = time.Since(start)
	return res, nil
}

// run rebuilds env for cfg and simulates it to the standby horizon.
func (env *runEnv) run(cfg Config) (*Result, error) {
	return env.runInto(context.Background(), cfg, nil)
}

// runInto is run filling res, as the package's runInto does, and
// stopping once ctx ends. The clock runs an hour at a time, as
// RunToEmpty's drain does, and fires the events of one sweep to the
// horizon in the same order; ctx is seen between the hours.
func (env *runEnv) runInto(ctx context.Context, cfg Config, res *Result) (*Result, error) {
	if err := env.reset(cfg, 0); err != nil {
		return nil, err
	}
	for t, end := simclock.Time(0), simclock.Time(env.cfg.Duration); ; {
		t = min(t+simclock.Time(simclock.Hour), end)
		if env.clock.Run(t); t == end {
			return env.result(res), nil
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
}

// Comparison pairs a baseline run (typically NATIVE) with a candidate
// run (typically SIMTY) over the same workload and seed.
//
// Every ratio helper is total: a missing run (nil slot from an
// aggregate-mode batch) or a zero denominator yields 0, never a panic
// or NaN — fleet aggregation folds thousands of comparisons and one
// degenerate pair must not poison the stream.
type Comparison struct {
	Base, Test *Result
}

// complete reports whether both runs are present.
func (c Comparison) complete() bool { return c.Base != nil && c.Test != nil }

// TotalSavings is 1 − test/base of total standby energy (the paper's
// Figure 3 headline: 20% light, 25% heavy).
func (c Comparison) TotalSavings() float64 {
	if !c.complete() {
		return 0
	}
	if b := c.Base.Energy.TotalMJ(); b > 0 {
		return 1 - c.Test.Energy.TotalMJ()/b
	}
	return 0
}

// AwakeSavings is 1 − test/base of awake-attributable energy (the paper:
// >33% for both workloads).
func (c Comparison) AwakeSavings() float64 {
	if !c.complete() {
		return 0
	}
	if b := c.Base.Energy.AwakeMJ(); b > 0 {
		return 1 - c.Test.Energy.AwakeMJ()/b
	}
	return 0
}

// StandbyExtension is test/base − 1 of projected standby time (the
// paper: one-fourth to one-third).
func (c Comparison) StandbyExtension() float64 {
	if !c.complete() {
		return 0
	}
	if c.Base.StandbyHours > 0 {
		return c.Test.StandbyHours/c.Base.StandbyHours - 1
	}
	return 0
}

// WakeupReduction is 1 − test/base of total device wakeups.
func (c Comparison) WakeupReduction() float64 {
	if !c.complete() {
		return 0
	}
	if c.Base.FinalWakeups > 0 {
		return 1 - float64(c.Test.FinalWakeups)/float64(c.Base.FinalWakeups)
	}
	return 0
}

// Compare runs the same configuration under two policies.
func Compare(cfg Config, basePolicy, testPolicy string) (Comparison, error) {
	b := cfg
	b.Policy = basePolicy
	base, err := Run(b)
	if err != nil {
		return Comparison{}, err
	}
	tc := cfg
	tc.Policy = testPolicy
	test, err := Run(tc)
	if err != nil {
		return Comparison{}, err
	}
	return Comparison{Base: base, Test: test}, nil
}

// StaticPeriodsByComponent extracts, for each hardware component, the
// repeating intervals of the static alarms in the workload that wakelock
// it — the input to metrics.LeastWakeups (§4.2's lower bound).
func StaticPeriodsByComponent(specs []apps.Spec) map[hw.Component][]simclock.Duration {
	out := map[hw.Component][]simclock.Duration{}
	for _, s := range specs {
		if s.Dynamic {
			continue
		}
		for _, c := range s.HW.Components() {
			out[c] = append(out[c], s.Period)
		}
	}
	return out
}
