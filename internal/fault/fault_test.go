package fault

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/alarm"
	"repro/internal/hw"
	"repro/internal/simclock"
)

// installs is the installed-app predicate Validate takes, over names.
func installs(names ...string) func(string) bool {
	return func(app string) bool { return slices.Contains(names, app) }
}

// newInjector validates p against the installed app names and readies a
// fresh injector for it, as the simulator does for a run.
func newInjector(t *testing.T, p Plan, seed int64, clock *simclock.Clock, installed ...string) *Injector {
	t.Helper()
	if err := p.Validate(installs(installed...)); err != nil {
		t.Fatal(err)
	}
	in := new(Injector)
	in.Reset(p, seed, clock)
	return in
}

func TestPlanValidate(t *testing.T) {
	installed := []string{"A", "B"}
	cases := []struct {
		name string
		plan Plan
		want string // substring of the error; "" means valid
	}{
		{"empty", Plan{}, ""},
		{"leak ok", Plan{Leaks: []Leak{{App: "A"}}}, ""},
		{"leak missing app", Plan{Leaks: []Leak{{App: "Z"}}}, "not in the workload"},
		{"leak empty app", Plan{Leaks: []Leak{{}}}, "empty app"},
		{"leak duplicate", Plan{Leaks: []Leak{{App: "A"}, {App: "A"}}}, "duplicate leak"},
		{"leak negative after", Plan{Leaks: []Leak{{App: "A", AfterDeliveries: -1}}}, "negative AfterDeliveries"},
		{"leak negative extra", Plan{Leaks: []Leak{{App: "A", Extra: -1}}}, "negative Extra"},
		{"storm ok", Plan{Storms: []Storm{{App: "rogue"}}}, ""},
		{"storm empty app", Plan{Storms: []Storm{{}}}, "empty app"},
		{"storm negative period", Plan{Storms: []Storm{{App: "r", Period: -1}}}, "negative period"},
		{"storm negative count", Plan{Storms: []Storm{{App: "r", Count: -1}}}, "negative count"},
		{"jitter ok", Plan{Jitter: Jitter{MaxDelay: simclock.Second}}, ""},
		{"jitter negative delay", Plan{Jitter: Jitter{MaxDelay: -1}}, "negative jitter delay"},
		{"jitter bad prob", Plan{Jitter: Jitter{OverrunProb: 1.5}}, "outside [0,1]"},
		{"jitter missing app", Plan{Jitter: Jitter{MaxDelay: 1, Apps: []string{"Z"}}}, "not in the workload"},
		{"skew ok", Plan{Skews: []Skew{{App: "B", Offset: simclock.Minute}}}, ""},
		{"skew missing app", Plan{Skews: []Skew{{App: "Z"}}}, "not in the workload"},
		{"skew duplicate", Plan{Skews: []Skew{{App: "A"}, {App: "A", Offset: 1}}}, "duplicate skew"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.plan.Validate(installs(installed...))
			if c.want == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %v, want substring %q", err, c.want)
			}
		})
	}
}

func TestPlanEmpty(t *testing.T) {
	if !(Plan{}).Empty() {
		t.Error("zero plan not empty")
	}
	for _, p := range []Plan{
		{Leaks: []Leak{{App: "A"}}},
		{Storms: []Storm{{App: "A"}}},
		{Jitter: Jitter{MaxDelay: 1}},
		{Jitter: Jitter{OverrunProb: 0.1}},
		{Skews: []Skew{{App: "A"}}},
	} {
		if p.Empty() {
			t.Errorf("plan %+v reported empty", p)
		}
	}
}

func TestLeakModes(t *testing.T) {
	plan := Plan{Leaks: []Leak{
		{App: "never", Mode: LeakNever, AfterDeliveries: 1},
		{App: "late", Mode: LeakLate},
	}}
	in := newInjector(t, plan, 1, simclock.New(), "never", "late")

	// First delivery of "never" is healthy (AfterDeliveries: 1), the
	// second leaks forever.
	if _, d := in.PerturbTask("never", simclock.Second); d != simclock.Second {
		t.Errorf("delivery 1 perturbed to %v before the trigger", d)
	}
	if _, d := in.PerturbTask("never", simclock.Second); d != leakDur {
		t.Errorf("delivery 2 held %v, want the never-released hold %v", d, leakDur)
	}

	// "late" leaks from its first delivery, by the default extra hold.
	if _, d := in.PerturbTask("late", simclock.Second); d != simclock.Second+DefaultLeakExtra {
		t.Errorf("late leak held %v, want nominal+%v", d, DefaultLeakExtra)
	}

	// An untargeted app is untouched.
	if delay, d := in.PerturbTask("healthy", simclock.Second); delay != 0 || d != simclock.Second {
		t.Errorf("healthy app perturbed: delay %v dur %v", delay, d)
	}

	// The leak trigger is recorded once per app, not per delivery.
	in.PerturbTask("never", simclock.Second)
	leaks := 0
	for _, e := range in.AppendEvents(nil) {
		if e.Kind == "leak" {
			leaks++
		}
	}
	if leaks != 2 {
		t.Errorf("%d leak events for 2 leaky apps: %v", leaks, in.AppendEvents(nil))
	}
}

func TestInjectorDeterminism(t *testing.T) {
	plan := Plan{Jitter: Jitter{MaxDelay: simclock.Second, OverrunProb: 0.3, OverrunFactor: 4}}
	mk := func() []simclock.Duration {
		in := newInjector(t, plan, 42, simclock.New())
		var out []simclock.Duration
		for i := 0; i < 64; i++ {
			delay, dur := in.PerturbTask("app", simclock.Second)
			out = append(out, delay, dur)
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d diverged across identical seeds: %v vs %v", i, a[i], b[i])
		}
	}

	in := newInjector(t, plan, 43, simclock.New())
	diverged := false
	for i := 0; i < 64; i++ {
		delay, dur := in.PerturbTask("app", simclock.Second)
		if delay != a[2*i] || dur != a[2*i+1] {
			diverged = true
		}
	}
	if !diverged {
		t.Error("different seeds produced an identical jitter stream")
	}
}

func TestInstallSkewRecordedOnce(t *testing.T) {
	plan := Plan{Skews: []Skew{{App: "A", Offset: simclock.Minute}}}
	in := newInjector(t, plan, 1, simclock.New(), "A")
	if off := in.InstallSkew("A"); off != simclock.Minute {
		t.Fatalf("skew = %v", off)
	}
	if off := in.InstallSkew("B"); off != 0 {
		t.Fatalf("unskewed app offset %v", off)
	}
	in.InstallSkew("A")
	if n := len(in.AppendEvents(nil)); n != 1 {
		t.Errorf("%d skew events, want 1: %v", n, in.AppendEvents(nil))
	}
}

// stormHost drives a Manager for the storm test: always awake, so
// deliveries fire as soon as they are due.
type stormHost struct {
	clock  *simclock.Clock
	onWake []func()
}

func (h *stormHost) Awake() bool           { return true }
func (h *stormHost) ExecuteWake(fn func()) { fn() }
func (h *stormHost) OnWake(fn func())      { h.onWake = append(h.onWake, fn) }
func (h *stormHost) Session() int          { return 1 }

func TestStormReRegisters(t *testing.T) {
	clock := simclock.New()
	mgr := alarm.NewManager(clock, &stormHost{clock: clock}, alarm.NoAlign{})
	var recs []alarm.Record
	mgr.SetRecordFunc(func(r alarm.Record) { recs = append(recs, r) })

	plan := Plan{Storms: []Storm{{App: "rogue", Period: simclock.Second, Count: 10}}}
	in := newInjector(t, plan, 1, clock)
	ran := 0
	if err := in.StartStorms(mgr, func(tag string, dur simclock.Duration) { ran++ }); err != nil {
		t.Fatal(err)
	}

	clock.Run(simclock.Time(simclock.Minute))
	if len(recs) != 10 {
		t.Fatalf("%d storm deliveries, want exactly Count=10", len(recs))
	}
	if ran != 10 {
		t.Fatalf("storm task ran %d times", ran)
	}
	for _, r := range recs {
		if r.App != "rogue" || r.AlarmID != "rogue.storm" {
			t.Fatalf("storm record mis-attributed: %+v", r)
		}
	}
	// Deliveries are one period apart starting one period in.
	for i, r := range recs {
		want := simclock.Time(simclock.Duration(i+1) * simclock.Second)
		if r.Delivered != want {
			t.Fatalf("delivery %d at %v, want %v", i, r.Delivered, want)
		}
	}
	if mgr.Pending() != 0 {
		t.Errorf("%d alarms still queued after the storm burned out", mgr.Pending())
	}
}

func TestRecordViolation(t *testing.T) {
	in := newInjector(t, Plan{Leaks: []Leak{{App: "A"}}}, 1, simclock.New(), "A")
	var mirrored []Event
	in.OnEvent = func(e Event) { mirrored = append(mirrored, e) }
	in.RecordViolation("hw", "release of unheld component Wi-Fi")
	if len(in.AppendEvents(nil)) != 1 || len(mirrored) != 1 {
		t.Fatalf("events %v, mirrored %v", in.AppendEvents(nil), mirrored)
	}
	e := in.AppendEvents(nil)[0]
	if e.Kind != "violation" || !strings.Contains(e.Detail, "hw:") {
		t.Errorf("violation event %+v", e)
	}
	_ = hw.WiFi // keep the import honest: violations originate in hw
}

// TestEventsSnapshot: AppendEvents must copy — callers sort fault
// logs by app for reporting, and that must not reorder the injector's
// own chronological record.
func TestEventsSnapshot(t *testing.T) {
	in := newInjector(t, Plan{Leaks: []Leak{{App: "A"}}}, 1, simclock.New(), "A")
	in.RecordViolation("hw", "first")
	in.RecordViolation("hw", "second")
	ev := in.AppendEvents(nil)
	first := ev[0]
	ev[0], ev[1] = ev[1], ev[0]
	if got := in.AppendEvents(nil)[0]; got != first {
		t.Fatalf("mutating AppendEvents' result corrupted the log: got %+v, want %+v", got, first)
	}
}

// TestResetMatchesFresh: an injector reset for a plan behaves as a fresh
// one reset for it, whatever it injected before. The reused injector
// first runs a plan whose every map, leak state and log entry the second
// plan lacks; both then run the same script of hooks and must draw the
// same perturbations and record the same log, with nothing of the first
// run in it.
func TestResetMatchesFresh(t *testing.T) {
	first := Plan{
		Leaks:  []Leak{{App: "A", Mode: LeakNever}, {App: "B"}},
		Jitter: Jitter{Apps: []string{"A"}, MaxDelay: simclock.Second, OverrunProb: 0.5},
		Skews:  []Skew{{App: "B", Offset: simclock.Minute}},
	}
	second := Plan{
		Leaks:  []Leak{{App: "B", AfterDeliveries: 1}},
		Jitter: Jitter{MaxDelay: 2 * simclock.Second, OverrunProb: 0.3},
		Skews:  []Skew{{App: "A", Offset: simclock.Second}},
	}
	script := func(in *Injector) ([]simclock.Duration, []Event) {
		var durs []simclock.Duration
		for _, app := range []string{"A", "B"} {
			durs = append(durs, in.InstallSkew(app))
		}
		for i := 0; i < 8; i++ {
			for _, app := range []string{"A", "B", "C"} {
				delay, dur := in.PerturbTask(app, simclock.Second)
				durs = append(durs, delay, dur)
			}
		}
		in.RecordViolation("hw", "release of an unheld component")
		return durs, in.AppendEvents(nil)
	}

	reused := newInjector(t, first, 7, simclock.New(), "A", "B", "C")
	if _, events := script(reused); len(events) == 0 {
		t.Fatal("the first plan recorded nothing — test exercises less than it claims")
	}
	reused.OnEvent = func(Event) { t.Error("OnEvent survived Reset") }
	if err := second.Validate(installs("A", "B", "C")); err != nil {
		t.Fatal(err)
	}
	reused.Reset(second, 9, simclock.New())
	gotDurs, gotEvents := script(reused)
	wantDurs, wantEvents := script(newInjector(t, second, 9, simclock.New(), "A", "B", "C"))
	if !reflect.DeepEqual(gotDurs, wantDurs) {
		t.Errorf("a reset injector perturbs differently from a fresh one:\n got %v\nwant %v", gotDurs, wantDurs)
	}
	if !reflect.DeepEqual(gotEvents, wantEvents) {
		t.Errorf("a reset injector logs differently from a fresh one:\n got %v\nwant %v", gotEvents, wantEvents)
	}
}

// TestLeakDetail: a leak's event detail reads the same whether it comes
// from the first-delivery table or is formatted.
func TestLeakDetail(t *testing.T) {
	for _, m := range []LeakMode{LeakNever, LeakLate, LeakMode(7)} {
		for _, n := range []int{1, 2, 12} {
			if got, want := leakDetail(m, n), fmt.Sprintf("wakelock %s from delivery %d", m, n); got != want {
				t.Errorf("leakDetail(%v, %d) = %q, want %q", m, n, got, want)
			}
		}
	}
}
