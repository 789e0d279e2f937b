package sim

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/alarm"
	"repro/internal/apps"
	"repro/internal/device"
	"repro/internal/fault"
	"repro/internal/freelist"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/power"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// runEnv is one fully wired simulation environment: virtual clock,
// power profile, device, alarm manager, application runtime, and the
// external-wakeup processes (GCM-style pushes, screen-on sessions).
// Run and RunToEmpty both execute on top of it, so the two entry points
// cannot diverge in what a Config means — RunToEmpty once re-implemented
// this setup by hand and silently dropped PushesPerHour and
// ScreenSessionsPerHour, measuring push-heavy standby times against the
// wrong workload.
//
// An environment outlives its run: reset rebuilds it in place for the
// next Config, and Run and RunToEmpty put it back on envs once the
// result is out. The layers' pools, buffers, maps and RNG sources, and
// the registry policy it built, then start the next run already grown.
// The zero runEnv goes through the same reset, so a fresh and a recycled
// environment run the same code.
type runEnv struct {
	cfg     Config // defaults applied
	pol     alarm.Policy
	clock   simclock.Clock
	profile *power.Profile
	dev     device.Device
	mgr     alarm.Manager
	rt      apps.Runtime
	logger  *trace.Logger
	recs    []alarm.Record
	pushes  int

	// inj is the run's fault injector, pointing at injector, or nil
	// without an active plan. The injector is kept across runs and reset
	// in place. The callbacks that connect it to the run are bound once:
	// devViolationFn and hwViolationFn record contract violations,
	// faultEventFn mirrors its events into the trace and stormTaskFn
	// runs a storm delivery's task.
	inj            *fault.Injector
	injector       fault.Injector
	devViolationFn func(detail string)
	hwViolationFn  func(c hw.Component, detail string)
	faultEventFn   func(fault.Event)
	stormTaskFn    func(tag string, dur simclock.Duration)
	// spareEvents is a fault-log array no Result owns any more: result
	// takes it from a recycled Result whose run logged nothing and hands
	// it to the next run that logs events into a Result without one.
	spareEvents []fault.Event

	// zeroLat is the ZeroWakeLatency copy of the run's profile.
	zeroLat power.Profile

	// Every derived metric streams through these accumulators as records
	// arrive — the same arithmetic whether or not the records themselves
	// are retained, which is what makes Config.NoTrace bit-identical to a
	// retained run on everything but Records/Trace.
	appNames  map[string]bool
	delaysApp metrics.DelayAcc
	delaysAll metrics.DelayAcc
	wakeups   metrics.WakeupAcc
	spkvib    metrics.SpkVibAcc
	guard     metrics.GuaranteeAcc
	gaps      metrics.GapAcc
	aoi       metrics.AoIAcc

	// screenProc and pushProc are the external-wakeup processes; one
	// whose rate is zero stays idle for the run.
	screenProc, pushProc wakeProcess

	// backend is the device-side half of the backend co-simulation (nil
	// unless Config.Backend is set); it points at client.
	backend *backendClient
	client  backendClient

	// observeFn is observe, bound once.
	observeFn func(alarm.Record)

	// kept holds every registry policy this environment built that it
	// may reuse (a resetter named for its registration), by the
	// Config.Policy it was built for.
	kept map[string]alarm.Policy
}

// envs holds the environments of finished runs for the next ones: one
// for each run that ever ran at once, kept for good, so that a loop of
// runs gets its warm environment back whatever collections ran in
// between. Nothing a Result owns stays in them (release), and a run
// that errors or panics never returns its environment.
var envs freelist.Locked[runEnv]

// getEnv takes an environment off envs, or makes a zero one.
func getEnv() *runEnv {
	if env := envs.Get(); env != nil {
		return env
	}
	return new(runEnv)
}

// release drops env's references to what its run's result owns, the
// retained records and the trace logger with the device and wakelock
// hooks that point at it, and puts env back on envs.
func (env *runEnv) release() {
	if env.logger != nil {
		env.dev.OnTask(nil)
		// This drops the accountant's subscription too; the device's
		// Reset in the next run subscribes it again.
		env.dev.Wakelocks().Reset()
	}
	env.recs, env.logger = nil, nil
	envs.Put(env)
}

// defaultProfile is the Nexus 5 profile a Config without one runs on, and
// systemSpecs the population Config.SystemAlarms installs. Nothing writes
// to either, so every run shares them.
var (
	defaultProfile = power.Nexus5()
	systemSpecs    = apps.SystemSpecs()
)

// observe is the manager's record sink: it streams every derived metric,
// retains the record when reset made a record slice (a Run outside
// NoTrace mode) and mirrors it into the trace.
func (e *runEnv) observe(r alarm.Record) {
	if e.recs != nil {
		e.recs = append(e.recs, r)
	}
	if e.appNames[r.App] {
		e.delaysApp.Add(r)
		e.aoi.Add(r)
	}
	e.delaysAll.Add(r)
	e.wakeups.Add(r)
	e.spkvib.Add(r)
	e.guard.Add(r)
	e.gaps.Add(r)
	if e.backend != nil {
		e.backend.observeRecord(r)
	}
	if e.logger != nil {
		e.logger.Record(r)
	}
}

// estimateDeliveries bounds the expected alarm-delivery count over the
// standby horizon from the workload's repeating intervals — used to
// presize the record slice and the trace buffer so steady-state appends
// never reallocate. It is a heuristic (dynamic alarms drift, realignment
// batches), so it aims a little high rather than exact.
func estimateDeliveries(cfg Config) int {
	n := cfg.OneShots
	add := func(period simclock.Duration) {
		if period > 0 {
			n += int(cfg.Duration/period) + 1
		}
	}
	for _, s := range cfg.Workload {
		add(s.Period)
	}
	if cfg.SystemAlarms {
		for _, s := range systemSpecs {
			add(s.Period)
		}
	}
	return n
}

// reset validates cfg and rebuilds the environment in place for it.
// horizon bounds the external-wakeup Poisson processes: zero means the
// standby horizon (Run), while RunToEmpty passes the drain cap so pushes
// and screen sessions persist for as long as the discharge can possibly
// last. A drain keeps no records, since DrainResult has none. One-shot
// alarms are always scheduled within cfg.Duration, and the record and
// trace buffers are sized from it, in both entry points: a discharge's
// trace grows past that size as it needs. After an error the
// environment is half built and must be dropped.
//
// The construction order (trace hookup, workload, system alarms,
// one-shots, screen sessions, pushes) is load-bearing: events scheduled
// for the same instant fire in FIFO order of scheduling, and the golden
// parity tests pin the resulting delivery stream byte for byte.
func (env *runEnv) reset(cfg Config, horizon simclock.Duration) error {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return err
	}
	pol := cfg.Custom
	if pol == nil {
		var err error
		if pol, err = env.registryPolicy(cfg); err != nil {
			return err
		}
	}
	env.cfg, env.pol = cfg, pol
	env.clock.Reset()
	clock := &env.clock
	env.profile = cfg.Profile
	if env.profile == nil {
		env.profile = defaultProfile
	}
	if cfg.ZeroWakeLatency {
		env.zeroLat = *env.profile
		env.zeroLat.WakeLatencyMin, env.zeroLat.WakeLatencyMax = 0, 0
		env.profile = &env.zeroLat
	}
	env.dev.Reset(clock, env.profile, cfg.Seed)
	env.backend = nil
	if cfg.Backend != nil {
		// The client subscribes its wake hook before the manager exists:
		// reconnect state must be armed before the manager's wake-flush
		// deliveries (its own OnWake subscription) are observed.
		env.backend = &env.client
		env.backend.reset(clock, &env.dev, *cfg.Backend, cfg.Seed)
	}
	env.mgr.Reset(clock, &env.dev, pol)
	env.mgr.SetRealign(!cfg.DisableRealign)

	if env.appNames == nil {
		env.appNames = make(map[string]bool, len(cfg.Workload))
	}
	clear(env.appNames)
	for _, s := range cfg.Workload {
		env.appNames[s.Name] = true
	}
	env.delaysApp, env.delaysAll = metrics.DelayAcc{}, metrics.DelayAcc{}
	env.wakeups, env.spkvib = metrics.WakeupAcc{}, metrics.SpkVibAcc{}
	env.guard, env.gaps = metrics.GuaranteeAcc{}, metrics.GapAcc{}
	env.aoi.Reset()
	env.pushes = 0
	deliveries := estimateDeliveries(cfg)
	// The records and the trace belong to the Result, so each run makes
	// its own. A drain (horizon ≠ 0) keeps no records.
	env.recs, env.logger = nil, nil
	if !cfg.NoTrace && horizon == 0 {
		env.recs = make([]alarm.Record, 0, deliveries)
	}
	if cfg.CollectTrace {
		// Each delivery produces a handful of trace events (the delivery
		// itself, task start/end, wakelock transitions); pushes and screen
		// sessions add a similar burst each.
		bursts := int(float64(cfg.Duration) / float64(simclock.Hour) *
			(cfg.PushesPerHour + cfg.ScreenSessionsPerHour))
		env.logger = trace.NewLoggerSized(clock, 6*deliveries+6*bursts)
		env.dev.Wakelocks().Subscribe(env.logger)
		env.dev.OnTask(env.logger.Task)
	}
	if env.observeFn == nil {
		env.observeFn = env.observe
	}
	env.mgr.SetRecordFunc(env.observeFn)

	env.rt.Reset(clock, &env.dev, &env.mgr, cfg.Seed+1)
	env.rt.Beta, env.rt.Jitter, env.rt.AlignedPhases = cfg.Beta, cfg.TaskJitter, cfg.AlignedPhases

	// The fault injector hooks in before the workload installs (clock
	// skew applies at install time). With no plan, nothing below changes
	// behaviour: the golden parity tests pin that a nil Faults config
	// remains byte-identical to the pre-fault implementation.
	env.inj = nil
	if cfg.Faults != nil && !cfg.Faults.Empty() {
		// validate has checked the plan against the workload.
		env.inj = &env.injector
		env.inj.Reset(*cfg.Faults, cfg.Seed, clock)
		env.rt.Faults = env.inj
		if env.devViolationFn == nil {
			env.devViolationFn, env.hwViolationFn = env.deviceViolation, env.hwViolation
			env.faultEventFn, env.stormTaskFn = env.faultEvent, env.stormTask
		}
		if env.logger != nil {
			env.inj.OnEvent = env.faultEventFn
		}
		// Under an active plan, hardware and device contract violations
		// become recorded fault events instead of crashing the run.
		env.dev.SetViolationHandler(env.devViolationFn)
		env.dev.Wakelocks().SetViolationHandler(env.hwViolationFn)
	}

	if err := env.rt.Install(cfg.Workload); err != nil {
		return err
	}
	if cfg.SystemAlarms {
		if err := env.rt.Install(systemSpecs); err != nil {
			return err
		}
	}
	if cfg.OneShots > 0 {
		if err := env.rt.ScheduleOneShots(cfg.Duration, cfg.OneShots); err != nil {
			return err
		}
	}

	if horizon == 0 {
		horizon = cfg.Duration
	}
	env.scheduleScreenSessions(horizon)
	env.schedulePushes(horizon)

	// Alarm storms register last: they are adversarial load on top of
	// the legitimate workload, and with no plan this is a no-op.
	if env.inj != nil {
		if err := env.inj.StartStorms(&env.mgr, env.stormTaskFn); err != nil {
			return fmt.Errorf("sim: %w", err)
		}
	}
	return nil
}

func (env *runEnv) deviceViolation(detail string) { env.inj.RecordViolation("device", detail) }

func (env *runEnv) hwViolation(_ hw.Component, detail string) { env.inj.RecordViolation("hw", detail) }

// faultEvent mirrors a fault event into the run's trace.
func (env *runEnv) faultEvent(e fault.Event) { env.logger.Fault(e.App, e.Kind+": "+e.Detail) }

// stormTask runs one storm delivery's busywork, wakelocking nothing.
func (env *runEnv) stormTask(tag string, dur simclock.Duration) { env.dev.RunTaskTagged(tag, 0, dur) }

// resetter is a registry policy an environment may keep across runs:
// Reset(ctx) leaves it as its factory builds it for ctx (alarm.Factory).
type resetter interface {
	Reset(ctx alarm.PolicyContext)
}

// registryPolicy resolves cfg.Policy: the policy kept for that name,
// reset for this run, or else a fresh one from the registry, which is
// kept for the name when it can be reset. An environment that
// alternates policies (a fleet of two entrants) thus builds each once. A
// plug-in factory may hand out another registration's policy, whose
// Reset knows nothing of the plug-in's factory, so only a policy named
// for its own registration is kept.
func (env *runEnv) registryPolicy(cfg Config) (alarm.Policy, error) {
	pctx := alarm.PolicyContext{Seed: cfg.Seed}
	if cfg.Diurnal != nil {
		pctx.Activity = cfg.Diurnal
	}
	if pol, ok := env.kept[cfg.Policy]; ok {
		pol.(resetter).Reset(pctx)
		return pol, nil
	}
	pol, err := alarm.PolicyByName(cfg.Policy, pctx)
	if err != nil {
		return nil, err
	}
	if _, ok := pol.(resetter); ok && strings.EqualFold(pol.Name(), cfg.Policy) {
		if env.kept == nil {
			env.kept = map[string]alarm.Policy{}
		}
		env.kept[cfg.Policy] = pol
	}
	return pol, nil
}

// screenSessionDur is how long one screen-on session keeps the screen
// lit.
const screenSessionDur = 30 * simclock.Second

// scheduleScreenSessions starts the Poisson screen-on process (RNG
// stream cfg.Seed+3). Screen-on periods end connected standby
// momentarily: the device is awake, so due non-wakeup alarms flush.
func (e *runEnv) scheduleScreenSessions(horizon simclock.Duration) {
	rate, maxScale := e.diurnalRate(e.cfg.ScreenSessionsPerHour, (*apps.DayProfile).MaxScreenScale)
	if rate <= 0 {
		return
	}
	p := &e.screenProc
	*p = wakeProcess{
		env: e, rng: simclock.Reseed(p.rng, e.cfg.Seed+3), horizon: simclock.Time(horizon),
		meanGap: float64(simclock.Hour) / rate, maxScale: maxScale, scale: screenScale,
		tag: "screen-session", set: hw.MakeSet(hw.Screen), dur: screenSessionDur,
		fireFn: p.fireFn, taskFn: p.taskFn,
	}
	p.start()
}

func screenScale(ph apps.Phase) float64 { return ph.ScreenScale }

func pushScale(ph apps.Phase) float64 { return ph.PushScale }

// wakeProcess is one of the run's external-wakeup processes (pushes,
// screen sessions): candidate events at Poisson arrival times, each
// waking the device to run one task. Its two callbacks are bound at its
// first start and kept across runs, so the process allocates nothing per
// event.
type wakeProcess struct {
	env      *runEnv
	rng      *rand.Rand
	horizon  simclock.Time
	meanGap  float64
	maxScale float64
	// scale picks the process's rate scale out of a diurnal phase.
	scale func(apps.Phase) float64
	tag   string
	set   hw.Set
	dur   simclock.Duration
	// counter, when set, counts the accepted events.
	counter *int

	at             simclock.Time // the pending candidate's arrival
	fireFn, taskFn func()
}

// start binds the callbacks if need be and schedules the first candidate.
func (p *wakeProcess) start() {
	if p.fireFn == nil {
		p.fireFn, p.taskFn = p.fire, p.task
	}
	p.schedule(simclock.Time(p.gap()))
}

func (p *wakeProcess) gap() simclock.Duration {
	return simclock.Duration(p.rng.ExpFloat64() * p.meanGap)
}

func (p *wakeProcess) schedule(at simclock.Time) {
	if at > p.horizon {
		return
	}
	p.at = at
	p.env.clock.Schedule(at, p.fireFn)
}

// fire handles one candidate and schedules the next. Thinning:
// candidates arrive at the profile's peak rate and survive with
// probability scale(t)/maxScale, which realizes a Poisson process whose
// intensity follows the phase scales. A nil profile draws no thinning
// variate, keeping the stream byte-identical to the pre-diurnal
// simulator.
func (p *wakeProcess) fire() {
	e := p.env
	if e.cfg.Diurnal == nil || p.rng.Float64()*p.maxScale < p.scale(e.cfg.Diurnal.At(p.at)) {
		if p.counter != nil {
			*p.counter++
		}
		e.dev.ExecuteWake(p.taskFn)
	}
	p.schedule(p.at.Add(p.gap()))
}

func (p *wakeProcess) task() { p.env.dev.RunTaskTagged(p.tag, p.set, p.dur) }

// diurnalRate maps a base event rate to the candidate (envelope) rate
// the thinning processes draw at: base × the profile's peak scale, or
// the base rate unchanged without a profile. The peak scale is returned
// for the acceptance test.
func (e *runEnv) diurnalRate(base float64, maxOf func(*apps.DayProfile) float64) (rate, maxScale float64) {
	if base <= 0 {
		return 0, 0
	}
	if e.cfg.Diurnal == nil {
		return base, 1
	}
	maxScale = maxOf(e.cfg.Diurnal)
	return base * maxScale, maxScale
}

// schedulePushes starts the Poisson external-wakeup process (RNG stream
// cfg.Seed+2): GCM pushes are not subject to the alignment policy, but
// they wake the device and due non-wakeup alarms flush on them.
func (e *runEnv) schedulePushes(horizon simclock.Duration) {
	rate, maxScale := e.diurnalRate(e.cfg.PushesPerHour, (*apps.DayProfile).MaxPushScale)
	if rate <= 0 {
		return
	}
	// Receiving the message costs a short Wi-Fi burst.
	p := &e.pushProc
	*p = wakeProcess{
		env: e, rng: simclock.Reseed(p.rng, e.cfg.Seed+2), horizon: simclock.Time(horizon),
		meanGap: float64(simclock.Hour) / rate, maxScale: maxScale, scale: pushScale,
		tag: "gcm-push", set: hw.MakeSet(hw.WiFi), dur: simclock.Second,
		counter: &e.pushes, fireFn: p.fireFn, taskFn: p.taskFn,
	}
	p.start()
}

// result fills res with every derived metric of the finished run and
// returns it; a nil res gets a fresh Result. All record-derived
// statistics come from the streaming accumulators fed by observe, so the
// result is identical whether or not the records were retained
// (Config.NoTrace). A res an earlier run filled lends that run's backend
// stats, arrival buckets and fault log to this one, which overwrites
// them: every field comes out as a fresh Result's would.
func (e *runEnv) result(res *Result) *Result {
	if res == nil {
		res = new(Result)
	}
	bk, events := res.Backend, res.FaultEvents
	*res = Result{
		Config:       e.cfg,
		PolicyName:   e.pol.Name(),
		Energy:       e.dev.Accountant().Snapshot(),
		Records:      e.recs,
		Delays:       e.delaysApp.Stats(),
		DelaysAll:    e.delaysAll.Stats(),
		Wakeups:      e.wakeups.Breakdown(),
		SpkVib:       e.spkvib.Row(),
		Guarantees:   e.guard.Guarantees(),
		WakeGaps:     e.gaps.Stats(),
		AoI:          e.aoi.Stats(e.clock.Now()),
		Trace:        e.logger,
		FinalWakeups: e.dev.Wakeups(),
		Pushes:       e.pushes,
	}
	// A run without fault events has a nil log, as a fresh Result does,
	// and the array res brings waits in spareEvents for one that logs.
	if e.inj != nil {
		if events == nil {
			events, e.spareEvents = e.spareEvents, nil
		}
		if events = e.inj.AppendEvents(events[:0]); len(events) > 0 {
			res.FaultEvents, events = events, nil
		}
	}
	if events != nil && e.spareEvents == nil {
		e.spareEvents = events
	}
	if e.backend != nil {
		res.Backend = e.backend.finish(bk)
	}
	res.StandbyHours = e.profile.StandbyHours(res.Energy)
	return res
}
