package sim

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/alarm"
	"repro/internal/apps"
	"repro/internal/backend"
	"repro/internal/fault"
	"repro/internal/hw"
	"repro/internal/power"
	"repro/internal/simclock"
	"repro/internal/trace"
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

// denseWorkload is 10 copies of the light workload, 120 apps, every copy
// after the first renamed the way examples/sweep's large-population grid
// does.
func denseWorkload() []apps.Spec {
	var dense []apps.Spec
	for c := 0; c < 10; c++ {
		for _, s := range apps.LightWorkload() {
			if c > 0 {
				s.Name = fmt.Sprintf("%s#%d", s.Name, c)
			}
			dense = append(dense, s)
		}
	}
	return dense
}

// shedConfig is notraceConfig("NATIVE") on a backend that sheds 40% of
// requests and backs off 10 to 20 minutes, so that 30 retry chains are
// still in flight at the horizon.
func shedConfig() Config {
	c := notraceConfig("NATIVE")
	c.Name = "shed"
	c.Backend = &backend.Model{ShedRate: 0.4, RetryBase: 10 * simclock.Minute, RetryMax: 20 * simclock.Minute}
	return c
}

// nightShiftDay is a diurnal day unlike apps.DefaultDay: the user is
// active through the first eight hours, where the default day sleeps.
func nightShiftDay() *apps.DayProfile {
	h := simclock.Hour
	return &apps.DayProfile{Phases: []apps.Phase{
		{Name: "shift", Start: 0, End: 8 * h, PushScale: 1, ScreenScale: 1, Active: true},
		{Name: "sleep", Start: 8 * h, End: 24 * h, PushScale: 0.2, ScreenScale: 0.1},
	}}
}

// recycleMix is a set of configs that between them set every piece of
// state a run leaves in its environment: every registered policy,
// SIMTY-U on a day of its own as well as on the default one, a fault
// plan (leaks, storms, violation handlers), a backend whose retry chains
// are still in flight at the horizon (and whose debounce no other config
// sets), a dense workload whose tasks are still in flight at the
// horizon, a diurnal day with pushes and screen sessions, zero wake
// latency, a custom profile, and the NoTrace, retained and CollectTrace
// modes.
func recycleMix() []Config {
	var cfgs []Config
	for i, policy := range PolicyNames() {
		c := Config{
			Name: policy, Policy: policy, Workload: apps.LightWorkload(), SystemAlarms: true,
			OneShots: 3, Duration: simclock.Hour, Seed: int64(10 + i), NoTrace: true,
		}
		cfgs = append(cfgs, c)
		if policy == "SIMTY-U" {
			// Next to the SIMTY-U row, so that an in-order pass reuses
			// its policy on another day.
			c.Name, c.Diurnal = "SIMTY-U night-shift", nightShiftDay()
			cfgs = append(cfgs, c)
		}
	}
	heavy := Config{Workload: apps.HeavyWorkload(), Policy: "SIMTY", SystemAlarms: true, OneShots: 4,
		Duration: 2 * simclock.Hour, Seed: 3}

	faults := heavy
	faults.Name, faults.Faults = "faults", faultPlan()
	shed := shedConfig()
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
	dense := Config{Name: "dense", Policy: "SIMTY", Workload: denseWorkload(), SystemAlarms: true,
		Seed: 1, NoTrace: true}
	return append(cfgs, faults, shed, day, zeroLat, custom, traced, dense)
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
// on a fresh one. One pass over recycleMix goes through Run in order on
// this goroutine, so each config takes over its predecessor's
// environment, and the night-shift SIMTY-U row the SIMTY-U row's policy.
// Two shuffled passes plus a RunToEmpty then go through Run on 4
// goroutines, so recycled environments move between unlike configs.
// Every result must deep-equal its config's run on a zero runEnv. A field
// that reset forgets carries one run's state into the next and fails the
// comparison. Once every run is done, each result is compared again: a
// later run writing into memory an earlier Result owns fails that second
// check.
func TestRecycledRunMatchesFresh(t *testing.T) {
	cfgs := recycleMix()
	drainCfg := Config{Name: "drain", Policy: "SIMTY", Workload: apps.LightWorkload(), SystemAlarms: true,
		OneShots: 2, PushesPerHour: 1, Seed: 5}

	want := make([]*Result, len(cfgs))
	for i, c := range cfgs {
		env := new(runEnv)
		r, err := env.run(c)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if c.Backend != nil && r.Backend.Pending == 0 {
			t.Fatalf("%s ends with no retry in flight — test exercises less than it claims", c.Name)
		}
		if c.Name == "dense" && env.dev.TasksActive() == 0 {
			t.Fatalf("%s ends with no task in flight — test exercises less than it claims", c.Name)
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
	shuffled := jobs[len(cfgs):]
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })

	got := make([]*Result, len(jobs))
	var gotDrain *DrainResult
	run := func(j int) {
		i := jobs[j]
		if i < 0 {
			r, err := RunToEmpty(drainCfg)
			if err != nil {
				t.Errorf("drain: %v", err)
			} else if !reflect.DeepEqual(r, wantDrain) {
				t.Errorf("drain on a recycled environment differs from a fresh one")
			}
			gotDrain = r
			return
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
	for j := range cfgs {
		run(j)
	}
	work := make(chan int)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range work {
				run(j)
			}
		}()
	}
	for j := len(cfgs); j < len(jobs); j++ {
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

// streamMix is a run mix for TestStreamRecyclesResults: backend runs of
// half an hour to three hours, whose arrival-bucket counts rise and
// fall from one to the next, runs with the backend off, and two leaking
// fault plans, one with a backend and one without. Seven configs, so
// that Results recycled three runs apart each take over every one.
func streamMix() []Config {
	leak := &fault.Plan{Leaks: []fault.Leak{{App: "Viber", Mode: fault.LeakLate}}}
	var cfgs []Config
	for i, c := range []struct {
		hours   float64
		backend bool
		faults  *fault.Plan
	}{
		{0.5, true, nil}, {3, true, nil}, {1, false, leak}, {1.5, true, nil},
		{2, false, nil}, {2, true, leak}, {1, false, nil},
	} {
		cfg := notraceConfig("SIMTY")
		cfg.Name, cfg.NoTrace, cfg.Seed = fmt.Sprint("mix", i), true, int64(20+i)
		cfg.Duration = simclock.Duration(c.hours * float64(simclock.Hour))
		if c.backend {
			cfg.Backend = &backend.Model{}
		}
		cfg.Faults = c.faults
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

// TestStreamRecyclesResults: a Stream lends its Results, and the one it
// delivered last is intact beside the one it delivers. One Stream on one
// worker runs streamMix three times over, in lockstep with delivery: run
// i+1 is prepared only once delivery i has begun, and delivery i checks
// Results i and i-1 only once run i+1 has finished. A Result handed back
// before the delivery after its own has then been written over by run
// i+1. Each delivered Result, and the previous one still held, must
// deep-equal its config's run on a fresh environment; the one worker's
// environment, its kept injector included, runs every config in turn.
func TestStreamRecyclesResults(t *testing.T) {
	cfgs := streamMix()
	want := make([]*Result, len(cfgs))
	for i, c := range cfgs {
		r, err := new(runEnv).run(c)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if c.Faults != nil && len(r.FaultEvents) == 0 {
			t.Fatalf("%s logs no fault event — test exercises less than it claims", c.Name)
		}
		want[i] = r
	}
	n := 3 * len(cfgs)
	started := make(chan struct{}, n)  // delivery i has begun
	finished := make(chan struct{}, n) // a run has finished
	prepare := func(i int) Config {
		if i > 0 {
			<-started
		}
		return cfgs[i%len(cfgs)]
	}
	opts := RunAllOptions{Workers: 1, Progress: func(Progress) { finished <- struct{}{} }}
	ran, lent := 0, map[*Result]bool{}
	var prev *Result
	check := func(at, i int, r *Result) {
		if !sameResult(r, want[i%len(cfgs)]) {
			t.Errorf("at delivery %d, Result %d (%s) differs from a fresh run:\n got %s\nwant %s",
				at, i, cfgs[i%len(cfgs)].Name, summarize(r), summarize(want[i%len(cfgs)]))
		}
	}
	err := Stream(context.Background(), n, prepare, opts, func(i int, r *Result) error {
		started <- struct{}{}
		for ; ran < min(i+2, n); ran++ {
			<-finished
		}
		check(i, i, r)
		if i > 0 {
			check(i, i-1, prev)
		}
		prev, lent[r] = r, true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(lent) >= n {
		t.Fatalf("%d runs delivered %d distinct Results: the stream recycled none", n, len(lent))
	}
}

// summarize is a one-line digest of a result for failure messages.
func summarize(r *Result) string {
	return fmt.Sprintf("%.3f mJ, %d wakeups, %d records, delays %+v, aoi %+v",
		r.Energy.TotalMJ(), r.FinalWakeups, len(r.Records), r.DelaysAll, r.AoI)
}

// heavyNoTrace is a NoTrace SIMTY run of the heavy workload over the
// default 3 h horizon.
func heavyNoTrace() Config {
	return Config{Policy: "SIMTY", Workload: apps.HeavyWorkload(), SystemAlarms: true, OneShots: 6,
		Seed: 1, NoTrace: true}
}

// TestRunAllocsCeiling pins that nothing a recycled run allocates scales
// with its workload. The alarms, their delivery callbacks and the
// one-shot IDs come from the runtime's slab, the tasks and retries in
// flight at the horizon go back to their pools, and the environment
// keeps its registry policy, so what remains is the Result: SIMTY's
// heavy and 128-alarm dense runs allocate that one object. Every
// registered policy's heavy run is held to its own count, and a backend
// adds two objects to a run, its stats with the histogram header and the
// exact-size copy of its arrival buckets. testing.AllocsPerRun warms the
// environment with one run first.
func TestRunAllocsCeiling(t *testing.T) {
	allocs := func(name string, cfg Config, ceiling float64) float64 {
		n := testing.AllocsPerRun(20, func() {
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocations per run", name, n)
		if n > ceiling {
			t.Errorf("%s: %.0f allocations per run, ceiling %.0f", name, n, ceiling)
		}
		return n
	}
	heavy := heavyNoTrace()
	h := allocs("heavy", heavy, 1)
	d := allocs("dense", Config{Policy: "SIMTY", Workload: denseWorkload(), SystemAlarms: true, Seed: 1,
		NoTrace: true}, 1)
	if d != h {
		t.Errorf("dense run allocates %.0f objects, heavy %.0f: something scales with the workload", d, h)
	}

	// The Result is one object. SIMTY-J's policy is a value the registry
	// builds on every run: the Jitter, its inner SIMTY and its name.
	policyCeilings := map[string]float64{
		"NATIVE": 1, "NOALIGN": 1, "INTERVAL": 1, "DOZE": 1,
		"SIMTY": 1, "SIMTY-DUR": 1, "AOI": 1,
		"SIMTY-hw2": 1, "SIMTY-hw4": 1, "SIMTY-J": 4, "SIMTY-U": 1,
	}
	for _, policy := range PolicyNames() {
		ceiling, ok := policyCeilings[policy]
		if !ok {
			t.Errorf("%s: no allocation ceiling", policy)
			continue
		}
		c := heavy
		c.Policy = policy
		allocs(policy, c, ceiling)
	}

	// The model cmd/wakebench's fleet runs every device with.
	model := backend.DefaultModel()
	backed := heavy
	backed.Backend = &model
	allocs("heavy backend", backed, 3)

	// shed keeps its records: the Result, the record slice, and the
	// backend's two objects. NATIVE builds no policy object.
	shed := shedConfig()
	r, err := Run(shed)
	if err != nil {
		t.Fatal(err)
	}
	if r.Backend.Pending == 0 {
		t.Fatal("shed ends with no retry in flight — test exercises less than it claims")
	}
	allocs("shed", shed, 4)
}

// TestAlternatingPoliciesAllocateOnlyResults: an environment keeps a
// policy for each name it ran, so SIMTY-U and AOI runs alternating on
// one goroutine, as a tournament fleet of the two runs them on each of
// its environments, build neither policy again and allocate their two
// Results.
func TestAlternatingPoliciesAllocateOnlyResults(t *testing.T) {
	u := heavyNoTrace()
	u.Policy, u.Diurnal, u.Duration = "SIMTY-U", apps.DefaultDay(), 6*simclock.Hour
	a := u
	a.Policy = "AOI"
	n := testing.AllocsPerRun(10, func() {
		for _, c := range []Config{u, a} {
			if _, err := Run(c); err != nil {
				t.Fatal(err)
			}
		}
	})
	if n > 2 {
		t.Errorf("a SIMTY-U and an AOI run allocate %.0f objects, want their 2 Results", n)
	}
}

// TestWarmEnvironmentSurvivesCollections: an idle environment stays on
// its free list through collections, so a run after two of them still
// takes its warm environment and allocates its Result, with one object
// of room for the runtime.
func TestWarmEnvironmentSurvivesCollections(t *testing.T) {
	cfg := heavyNoTrace()
	for i := 0; i < 2; i++ {
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	for i := 0; i < 5; i++ {
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, err := Run(cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if n := after.Mallocs - before.Mallocs; n > 2 {
			t.Errorf("run %d after two collections made %d allocations, ceiling 2", i, n)
		}
	}
}

// TestIdleEnvironmentKeepsNoResult: an environment waits on its free
// list for good, so it must let go of what its last Result owns. Once a
// retained, traced run's Result is dropped, finalizers on its first
// record and on its trace logger must run within two collections. The
// logger points at its environment's clock, so an environment still
// pointing at the logger, through a device or wakelock hook, makes a
// cycle whose finalizer never runs.
func TestIdleEnvironmentKeepsNoResult(t *testing.T) {
	cfg := heavyNoTrace()
	cfg.NoTrace, cfg.CollectTrace = false, true
	freed := make(chan string, 2)
	func() {
		r, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Records) == 0 || r.Trace == nil {
			t.Fatal("the run retained no records or no trace")
		}
		runtime.SetFinalizer(&r.Records[0], func(*alarm.Record) { freed <- "records" })
		runtime.SetFinalizer(r.Trace, func(*trace.Logger) { freed <- "trace" })
	}()
	runtime.GC()
	runtime.GC()
	timeout := time.After(5 * time.Second)
	for got := map[string]bool{}; len(got) < 2; {
		select {
		case what := <-freed:
			got[what] = true
		case <-timeout:
			t.Fatalf("two collections after the Result was dropped, only %v of its records and trace were freed", got)
		}
	}
}

// TestResultOwnsItsBuckets: the backend client counts every run's
// arrivals into one bucket buffer its environment keeps, so a Result
// must leave with a copy. Two backend configs with different arrivals
// run back to back on one environment; the second run must not change
// the first Result's buckets. TestRecycledRunMatchesFresh cannot tell: a
// later run of the same config rewrites identical buckets.
func TestResultOwnsItsBuckets(t *testing.T) {
	first := shedConfig()
	second := notraceConfig("SIMTY")
	second.Seed, second.Backend = 7, &backend.Model{}
	env := new(runEnv)
	a, err := env.run(first)
	if err != nil {
		t.Fatal(err)
	}
	want := slices.Clone(a.Backend.Hist.Buckets)
	b, err := env.run(second)
	if err != nil {
		t.Fatal(err)
	}
	n := min(len(want), len(b.Backend.Hist.Buckets))
	if slices.Equal(b.Backend.Hist.Buckets[:n], want[:n]) {
		t.Fatal("the two runs count the same leading buckets — test exercises less than it claims")
	}
	if !slices.Equal(a.Backend.Hist.Buckets, want) {
		t.Fatal("a later run on the same environment rewrote an earlier Result's arrival buckets")
	}
}
