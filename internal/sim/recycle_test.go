package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/backend"
	"repro/internal/hw"
	"repro/internal/power"
	"repro/internal/simclock"
)

// newRunEnv builds cfg's environment from the zero runEnv, through the
// same reset a recycled environment goes through.
func newRunEnv(cfg Config, horizon simclock.Duration) (*runEnv, error) {
	env := new(runEnv)
	if err := env.reset(cfg, horizon); err != nil {
		return nil, err
	}
	return env, nil
}

// recycleMix is a set of configs that between them set every piece of
// state a run leaves in its environment: every registered policy, a
// fault plan (leaks, storms, violation handlers), a backend whose retry
// chains are still in flight at the horizon (and whose debounce no other
// config sets), a diurnal day with pushes and screen sessions, zero wake
// latency, a custom profile, and the NoTrace, retained and CollectTrace
// modes.
func recycleMix() []Config {
	var cfgs []Config
	for i, policy := range PolicyNames() {
		cfgs = append(cfgs, Config{
			Name: policy, Policy: policy, Workload: apps.LightWorkload(), SystemAlarms: true,
			OneShots: 3, Duration: simclock.Hour, Seed: int64(10 + i), NoTrace: true,
		})
	}
	heavy := Config{Workload: apps.HeavyWorkload(), Policy: "SIMTY", SystemAlarms: true, OneShots: 4,
		Duration: 2 * simclock.Hour, Seed: 3}

	faults := heavy
	faults.Name, faults.Faults = "faults", faultPlan()
	shed := notraceConfig("NATIVE")
	shed.Name, shed.Backend = "shed", &backend.Model{ShedRate: 0.4, RetryBase: 10 * simclock.Minute, RetryMax: 20 * simclock.Minute}
	day := heavy
	day.Name, day.NoTrace, day.Duration = "day", true, 8*simclock.Hour
	day.Diurnal, day.PushesPerHour, day.ScreenSessionsPerHour = apps.DefaultDay(), 6, 2
	zeroLat := heavy
	zeroLat.Name, zeroLat.ZeroWakeLatency, zeroLat.Policy = "zero-latency", true, "NATIVE"
	// The custom-profile run installs the system services as apps, so
	// their deliveries count among its app delays and in no other run's.
	// Its slow resume and 100-minute horizon end the run mid-wake, with
	// two callbacks pending.
	custom := heavy
	p := power.Nexus5()
	p.AwakeHold *= 3
	p.WakeLatencyMin, p.WakeLatencyMax = 20*simclock.Second, 50*simclock.Second
	p.Components[hw.Speaker].Tail = 4 * simclock.Second
	custom.Name, custom.Profile, custom.SystemAlarms, custom.PushesPerHour = "profile", p, false, 30
	custom.Duration = 100 * simclock.Minute
	custom.Workload = append(apps.LightWorkload(), apps.SystemSpecs()...)
	traced := heavy
	traced.Name, traced.CollectTrace, traced.PushesPerHour = "trace", true, 3
	return append(cfgs, faults, shed, day, zeroLat, custom, traced)
}

// sameResult reports whether two runs of one config agree on everything
// but Wall. A trace is compared by its events: the logger itself points
// at its run's clock.
func sameResult(a, b *Result) bool {
	x, y := *a, *b
	x.Wall, y.Wall = 0, 0
	if (x.Trace == nil) != (y.Trace == nil) {
		return false
	}
	if x.Trace != nil {
		if !reflect.DeepEqual(x.Trace.Events(), y.Trace.Events()) {
			return false
		}
		x.Trace, y.Trace = nil, nil
	}
	return reflect.DeepEqual(x, y)
}

// TestRecycledRunMatchesFresh: a run on a recycled environment is the run
// on a fresh one. Three shuffled passes over recycleMix plus a
// RunToEmpty go through Run on 4 goroutines, so pooled environments move
// between unlike configs; every result must deep-equal its config's run
// on a zero runEnv. A field that reset forgets carries one run's state
// into the next and fails the comparison. Once every run is done, each
// result is compared again: a later run writing into memory an earlier
// Result owns fails that second check.
func TestRecycledRunMatchesFresh(t *testing.T) {
	cfgs := recycleMix()
	drainCfg := Config{Name: "drain", Policy: "SIMTY", Workload: apps.LightWorkload(), SystemAlarms: true,
		OneShots: 2, PushesPerHour: 1, Seed: 5}

	want := make([]*Result, len(cfgs))
	for i, c := range cfgs {
		r, err := new(runEnv).run(c)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if c.Backend != nil && r.Backend.Pending == 0 {
			t.Fatalf("%s ends with no retry in flight — test exercises less than it claims", c.Name)
		}
		want[i] = r
	}
	wantDrain, err := new(runEnv).drain(drainCfg)
	if err != nil {
		t.Fatal(err)
	}

	const passes = 3
	jobs := make([]int, 0, passes*len(cfgs)+1)
	for p := 0; p < passes; p++ {
		for i := range cfgs {
			jobs = append(jobs, i)
		}
	}
	jobs = append(jobs, -1) // the RunToEmpty
	rand.New(rand.NewSource(1)).Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })

	got := make([]*Result, len(jobs))
	var gotDrain *DrainResult
	work := make(chan int)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range work {
				i := jobs[j]
				if i < 0 {
					r, err := RunToEmpty(drainCfg)
					if err != nil {
						t.Errorf("drain: %v", err)
					} else if !reflect.DeepEqual(r, wantDrain) {
						t.Errorf("drain on a recycled environment differs from a fresh one")
					}
					gotDrain = r
					continue
				}
				r, err := Run(cfgs[i])
				if err != nil {
					t.Errorf("%s: %v", cfgs[i].Name, err)
				} else if !sameResult(r, want[i]) {
					t.Errorf("%s on a recycled environment differs from a fresh one:\n got %s\nwant %s",
						cfgs[i].Name, summarize(r), summarize(want[i]))
				}
				got[j] = r
			}
		}()
	}
	for j := range jobs {
		work <- j
	}
	close(work)
	wg.Wait()
	if t.Failed() {
		return
	}
	for j, i := range jobs {
		if i < 0 {
			if !reflect.DeepEqual(gotDrain, wantDrain) {
				t.Errorf("drain result changed after later runs")
			}
		} else if !sameResult(got[j], want[i]) {
			t.Errorf("%s result changed after later runs", cfgs[i].Name)
		}
	}
}

// summarize is a one-line digest of a result for failure messages.
func summarize(r *Result) string {
	return fmt.Sprintf("%.3f mJ, %d wakeups, %d records, delays %+v, aoi %+v",
		r.Energy.TotalMJ(), r.FinalWakeups, len(r.Records), r.DelaysAll, r.AoI)
}

// TestRunAllocsCeiling pins what a recycled run still allocates: the
// workload's alarms and delivery closures, the one-shot IDs, the policy
// and the Result. testing.AllocsPerRun warms the pool with one run first.
func TestRunAllocsCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race, sync.Pool.Put drops a random quarter of its objects")
	}
	heavy := Config{Policy: "SIMTY", Workload: apps.HeavyWorkload(), SystemAlarms: true, OneShots: 6,
		Seed: 1, NoTrace: true}
	var dense []apps.Spec
	for c := 0; c < 10; c++ {
		for _, s := range apps.LightWorkload() {
			if c > 0 {
				s.Name = fmt.Sprintf("%s#%d", s.Name, c)
			}
			dense = append(dense, s)
		}
	}
	for _, tc := range []struct {
		name    string
		cfg     Config
		ceiling float64
	}{
		{"heavy", heavy, 100},
		{"dense", Config{Policy: "SIMTY", Workload: dense, SystemAlarms: true, Seed: 1, NoTrace: true}, 350},
	} {
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := Run(tc.cfg); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocations per run", tc.name, allocs)
		if allocs > tc.ceiling {
			t.Errorf("%s: %.0f allocations per run, ceiling %.0f", tc.name, allocs, tc.ceiling)
		}
	}
}
