package sim

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/alarm"
	"repro/internal/apps"
	"repro/internal/fault"
	"repro/internal/simclock"
)

// panicPolicy is a poisoned alignment policy: its first Select panics,
// standing in for a buggy user-supplied policy (examples/custompolicy
// invites them) inside an otherwise healthy batch.
type panicPolicy struct{}

func (panicPolicy) Name() string { return "PANIC" }
func (panicPolicy) Select([]*alarm.Entry, *alarm.Alarm, simclock.Time) int {
	panic("poisoned policy")
}

// TestRunAllPoisonedFirstError: a panicking run becomes that run's
// error — never a crash — with the stack attached, and tears the pool
// down like any other first error. The pool leaves no goroutine behind
// (make verify executes this under -race).
func TestRunAllPoisonedFirstError(t *testing.T) {
	cfgs := make([]Config, 8)
	for i := range cfgs {
		cfgs[i] = Config{Workload: apps.LightWorkload(), Policy: "SIMTY", Seed: int64(i)}
	}
	const poisoned = 3
	cfgs[poisoned].Custom = panicPolicy{}

	before := runtime.NumGoroutine()
	// One worker: after it fails, only the pool's own shutdown can
	// release the feeder still holding runs 4–7.
	rs, err := RunAll(context.Background(), cfgs, RunAllOptions{Workers: 1})
	// A worker is still counted between its deferred wg.Done and its
	// exit, so give the pool a moment to unwind before calling it a leak.
	after := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); after > before && time.Now().Before(deadline); after = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	if after > before {
		t.Errorf("goroutines: %d before the poisoned batch, %d after", before, after)
	}
	if rs != nil {
		t.Errorf("RunAll returned partial results after a failure")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a *PanicError", err)
	}
	if pe.Value != "poisoned policy" {
		t.Errorf("panic value %v", pe.Value)
	}
	if !strings.Contains(string(pe.Stack), "goroutine") {
		t.Errorf("no stack attached to the panic: %q", pe.Stack)
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("run %d", poisoned)) ||
		!strings.Contains(err.Error(), "PANIC") {
		t.Errorf("error does not identify the poisoned run: %v", err)
	}
}

// faultPlan is the reference plan the determinism and e2e tests share:
// every fault class at once.
func faultPlan() *fault.Plan {
	return &fault.Plan{
		Leaks: []fault.Leak{
			{App: "Viber", Mode: fault.LeakLate, AfterDeliveries: 2},
			{App: "Weibo", Mode: fault.LeakNever, AfterDeliveries: 5},
		},
		Storms: []fault.Storm{{App: "rogue", Period: 30 * simclock.Second}},
		Jitter: fault.Jitter{MaxDelay: 2 * simclock.Second, OverrunProb: 0.1},
		Skews:  []fault.Skew{{App: "Line", Offset: simclock.Minute}},
	}
}

// TestFaultRunDeterministic is the other tentpole acceptance test:
// identical seeds + fault plan produce byte-identical Records and
// identical fault-event streams across repeated runs.
func TestFaultRunDeterministic(t *testing.T) {
	cfg := Config{
		Workload:     apps.HeavyWorkload(),
		Policy:       "SIMTY",
		Seed:         11,
		CollectTrace: true,
		Faults:       faultPlan(),
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Records, b.Records) {
		t.Error("Records diverged across identical seed+plan runs")
	}
	if !reflect.DeepEqual(a.FaultEvents, b.FaultEvents) {
		t.Error("FaultEvents diverged across identical seed+plan runs")
	}
	if a.Energy != b.Energy {
		t.Errorf("Energy diverged: %+v vs %+v", a.Energy, b.Energy)
	}
	if len(a.FaultEvents) == 0 {
		t.Fatal("the reference plan injected nothing")
	}

	// A different seed must actually change the injected stream —
	// otherwise "deterministic" would be vacuous.
	cfg2 := cfg
	cfg2.Seed = 12
	c, err := Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.FaultEvents, c.FaultEvents) {
		t.Error("fault stream identical across different seeds")
	}
}

// TestFaultEventsSurface checks each fault class leaves its mark on the
// run: leak and skew events are attributed to their apps, the storm
// delivers through the alarm manager, and fault events reach the trace.
func TestFaultEventsSurface(t *testing.T) {
	cfg := Config{
		Workload:     apps.HeavyWorkload(),
		Policy:       "NATIVE",
		Seed:         5,
		CollectTrace: true,
		Faults:       faultPlan(),
	}
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string][]string{}
	for _, e := range r.FaultEvents {
		kinds[e.Kind] = append(kinds[e.Kind], e.App)
	}
	for kind, wantApp := range map[string]string{
		"leak": "Viber",
		"skew": "Line",
	} {
		found := false
		for _, app := range kinds[kind] {
			if app == wantApp {
				found = true
			}
		}
		if !found {
			t.Errorf("no %q event for %s: %v", kind, wantApp, kinds[kind])
		}
	}

	storms := 0
	for _, rec := range r.Records {
		if rec.App == "rogue" {
			storms++
		}
	}
	if storms == 0 {
		t.Error("storm alarms never delivered")
	}

	faults := 0
	for _, e := range r.Trace.Events() {
		if e.Kind.String() == "fault" {
			faults++
		}
	}
	if faults != len(r.FaultEvents) {
		t.Errorf("%d fault trace events for %d fault events", faults, len(r.FaultEvents))
	}
}

// TestFaultLeakCostsEnergy: a never-released wakelock must burn more
// energy than the clean run — the fault is real, not just logged.
func TestFaultLeakCostsEnergy(t *testing.T) {
	cfg := Config{Workload: apps.LightWorkload(), Policy: "NATIVE", Seed: 9}
	clean, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	leaky := cfg
	leaky.Faults = &fault.Plan{Leaks: []fault.Leak{{App: "Facebook", Mode: fault.LeakNever}}}
	sick, err := Run(leaky)
	if err != nil {
		t.Fatal(err)
	}
	if sick.Energy.TotalMJ() <= clean.Energy.TotalMJ() {
		t.Errorf("leak did not cost energy: clean %.1f mJ, leaky %.1f mJ",
			clean.Energy.TotalMJ(), sick.Energy.TotalMJ())
	}
	if sick.StandbyHours >= clean.StandbyHours {
		t.Errorf("leak did not shorten standby: clean %.2f h, leaky %.2f h",
			clean.StandbyHours, sick.StandbyHours)
	}
}

// TestFaultPlanValidatedUpFront: a plan naming an app outside the
// workload is a config error before the run starts.
func TestFaultPlanValidatedUpFront(t *testing.T) {
	cfg := Config{
		Workload: apps.LightWorkload(),
		Policy:   "NATIVE",
		Seed:     1,
		Faults:   &fault.Plan{Leaks: []fault.Leak{{App: "NoSuchApp"}}},
	}
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "NoSuchApp") {
		t.Fatalf("bad plan accepted: %v", err)
	}
}
