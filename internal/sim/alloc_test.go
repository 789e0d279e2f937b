package sim

import (
	"runtime"
	"testing"

	"repro/internal/apps"
	"repro/internal/backend"
	"repro/internal/fault"
	"repro/internal/simclock"
)

// steadyState runs cfg for 48 h in NoTrace mode and reports the heap
// allocations and the deliveries of the second 24 h. The first 24 h are
// warm-up: they grow every pool (events, tasks, queue entries and their
// member slices, retries, the heap and queue arrays) to about the run's
// peak concurrency.
func steadyState(t *testing.T, cfg Config) (mallocs uint64, deliveries int) {
	t.Helper()
	cfg.NoTrace = true
	cfg.Duration = 48 * simclock.Hour
	env, err := newRunEnv(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	env.clock.Run(simclock.Time(cfg.Duration / 2))
	d0 := env.delaysAll.Stats()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	env.clock.Run(simclock.Time(cfg.Duration))
	runtime.ReadMemStats(&after)
	d1 := env.delaysAll.Stats()
	deliveries = d1.PerceptibleN + d1.ImperceptibleN - d0.PerceptibleN - d0.ImperceptibleN
	return after.Mallocs - before.Mallocs, deliveries
}

// TestRunSteadyStateAllocs: after warm-up a run makes no allocation per
// event. Every kernel callback is bound once and tasks, queue entries,
// pending-wake lists and retries are recycled, so what still allocates is
// a pool reaching a new peak. Such growth stays under one object per 100
// deliveries; per-event allocation makes several per delivery (three to
// eight, depending on the policy, with closures scheduled per event).
// An alarm storm re-registers its alarm on every delivery and must reuse
// it too; a storm-only plan records no fault event after set-up, while
// jitter overruns would add to the event log the Result owns.
func TestRunSteadyStateAllocs(t *testing.T) {
	var cfgs []Config
	for _, policy := range PolicyNames() {
		cfgs = append(cfgs, notraceConfig(policy)) // pushes, screen sessions, jitter
	}
	heavy := Config{Workload: apps.HeavyWorkload(), SystemAlarms: true, OneShots: 6, Seed: 1}
	for _, policy := range []string{"NATIVE", "SIMTY"} {
		c := heavy
		c.Policy = policy
		cfgs = append(cfgs, c)
		c.Diurnal = apps.DefaultDay()
		c.PushesPerHour, c.ScreenSessionsPerHour = 6, 2
		cfgs = append(cfgs, c)
		c = notraceConfig(policy)
		c.Backend = &backend.Model{ShedRate: 0.2} // retry chains
		cfgs = append(cfgs, c)
	}
	storm := heavy
	storm.Policy = "SIMTY"
	storm.Faults = &fault.Plan{Storms: []fault.Storm{{App: "rogue", Period: 30 * simclock.Second}}}
	cfgs = append(cfgs, storm)
	for _, c := range cfgs {
		mallocs, deliveries := steadyState(t, c)
		if deliveries < 1000 {
			t.Fatalf("%s: %d deliveries in the measured window — test exercises little", c.Policy, deliveries)
		}
		if mallocs*100 > uint64(deliveries) {
			t.Errorf("%s (diurnal %v, backend %v, faults %v): %d allocations over %d deliveries after warm-up",
				c.Policy, c.Diurnal != nil, c.Backend != nil, c.Faults != nil, mallocs, deliveries)
		}
	}
}
