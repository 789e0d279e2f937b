package device

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/power"
	"repro/internal/simclock"
)

const sec = simclock.Second

// fixedProfile returns a profile with deterministic latency for exact
// timing assertions.
func fixedProfile() *power.Profile {
	p := power.Nexus5()
	p.WakeLatencyMin = 500 * simclock.Millisecond
	p.WakeLatencyMax = 500 * simclock.Millisecond
	return p
}

func TestWakeTransition(t *testing.T) {
	c := simclock.New()
	d := New(c, fixedProfile(), 1)
	if d.Awake() {
		t.Fatal("device born awake")
	}
	var ranAt simclock.Time
	woke := 0
	d.OnWake(func() { woke++ })
	d.ExecuteWake(func() { ranAt = c.Now() })
	if d.Awake() {
		t.Fatal("awake before latency elapsed")
	}
	c.Run(simclock.Time(2 * sec))
	if ranAt != simclock.Time(500*simclock.Millisecond) {
		t.Fatalf("callback at %v, want 0.5s (wake latency)", ranAt)
	}
	if woke != 1 || d.Wakeups() != 1 || d.Session() != 1 {
		t.Fatalf("woke=%d wakeups=%d session=%d", woke, d.Wakeups(), d.Session())
	}
}

func TestWakeCoalescing(t *testing.T) {
	c := simclock.New()
	d := New(c, fixedProfile(), 1)
	runs := 0
	d.ExecuteWake(func() { runs++ })
	d.ExecuteWake(func() { runs++ }) // joins the in-progress wake
	c.Run(simclock.Time(1 * sec))
	if runs != 2 {
		t.Fatalf("runs = %d", runs)
	}
	if d.Wakeups() != 1 {
		t.Fatalf("wakeups = %d, want 1 coalesced", d.Wakeups())
	}
}

func TestExecuteWakeWhileAwakeIsImmediate(t *testing.T) {
	c := simclock.New()
	d := New(c, fixedProfile(), 1)
	d.ExecuteWake(func() {})
	c.Run(simclock.Time(600 * simclock.Millisecond))
	if !d.Awake() {
		t.Fatal("not awake")
	}
	ran := false
	d.ExecuteWake(func() { ran = true })
	if !ran {
		t.Fatal("awake ExecuteWake deferred")
	}
	if d.Wakeups() != 1 {
		t.Fatal("second wake counted")
	}
}

func TestAutoSleepAfterHold(t *testing.T) {
	c := simclock.New()
	p := fixedProfile()
	d := New(c, p, 1)
	d.ExecuteWake(func() {})
	// Wake at 0.5s, hold 0.5s → asleep at 1.0s.
	c.Run(simclock.Time(999 * simclock.Millisecond))
	if !d.Awake() {
		t.Fatal("slept before hold expired")
	}
	c.Run(simclock.Time(1001 * simclock.Millisecond))
	if d.Awake() {
		t.Fatal("still awake after hold")
	}
	b := d.Accountant().Snapshot()
	if b.WakeTransitions != 1 {
		t.Fatalf("transitions = %d", b.WakeTransitions)
	}
	if b.AwakeTime != 1*sec { // latency 0.5 + hold 0.5
		t.Fatalf("awake time = %v, want 1s", b.AwakeTime)
	}
}

func TestTaskKeepsDeviceAwake(t *testing.T) {
	c := simclock.New()
	d := New(c, fixedProfile(), 1)
	d.ExecuteWake(func() {
		d.RunTask(hw.MakeSet(hw.WiFi), 3*sec)
	})
	// Task runs 0.5→3.5s; hold 0.5 → sleep at 4.0s.
	c.Run(simclock.Time(3900 * simclock.Millisecond))
	if !d.Awake() {
		t.Fatal("slept during task/hold")
	}
	c.Run(simclock.Time(4100 * simclock.Millisecond))
	if d.Awake() {
		t.Fatal("awake after task + hold")
	}
	if d.TasksActive() != 0 {
		t.Fatalf("tasks active = %d", d.TasksActive())
	}
}

func TestTaskSerializationPerComponent(t *testing.T) {
	c := simclock.New()
	d := New(c, fixedProfile(), 1)
	var s1, e1, s2, e2, s3 simclock.Time
	d.ExecuteWake(func() {
		s1, e1 = d.RunTask(hw.MakeSet(hw.WiFi), 2*sec)
		s2, e2 = d.RunTask(hw.MakeSet(hw.WiFi), 2*sec)       // same component: serialized
		s3, _ = d.RunTask(hw.MakeSet(hw.Accelerometer), sec) // different: parallel
	})
	c.Run(simclock.Time(10 * sec))
	if s1 != simclock.Time(500*simclock.Millisecond) || e1 != s1.Add(2*sec) {
		t.Fatalf("task1 = [%v,%v]", s1, e1)
	}
	if s2 != e1 || e2 != s2.Add(2*sec) {
		t.Fatalf("task2 = [%v,%v], want serialized after task1", s2, e2)
	}
	if s3 != s1 {
		t.Fatalf("task3 start = %v, want parallel at %v", s3, s1)
	}
}

func TestTaskSharedComponentPowerIsShared(t *testing.T) {
	// Two back-to-back Wi-Fi tasks in one session pay one activation and
	// a contiguous powered interval — the energy mechanism behind
	// hardware-similarity alignment.
	run := func(n int) float64 {
		c := simclock.New()
		p := fixedProfile()
		d := New(c, p, 1)
		d.ExecuteWake(func() {
			for i := 0; i < n; i++ {
				d.RunTask(hw.MakeSet(hw.WiFi), 2*sec)
			}
		})
		c.Run(simclock.Time(5 * simclock.Minute))
		return d.Accountant().Snapshot().ComponentMJ[hw.WiFi]
	}
	one, two := run(1), run(2)
	p := fixedProfile()
	extra := two - one
	wifi := p.Components[hw.WiFi]
	if extra >= wifi.ActivationMJ+wifi.ActiveMW*(2+wifi.Tail.Seconds()) {
		t.Fatalf("aligned second task cost %v, want less than solo cost", extra)
	}
	if extra != wifi.ActiveMW*2 {
		t.Fatalf("aligned second task cost %v, want pure active time %v", extra, wifi.ActiveMW*2)
	}
}

func TestRunTaskWhileAsleepPanics(t *testing.T) {
	c := simclock.New()
	d := New(c, fixedProfile(), 1)
	defer func() {
		if recover() == nil {
			t.Fatal("RunTask while asleep did not panic")
		}
	}()
	d.RunTask(hw.MakeSet(hw.WiFi), sec)
}

func TestRunTaskNegativeDurationPanics(t *testing.T) {
	c := simclock.New()
	d := New(c, fixedProfile(), 1)
	d.ExecuteWake(func() {})
	c.Run(simclock.Time(sec))
	defer func() {
		if recover() == nil {
			t.Fatal("negative duration did not panic")
		}
	}()
	d.RunTask(hw.MakeSet(hw.WiFi), -1)
}

func TestExecuteWakeNilPanics(t *testing.T) {
	c := simclock.New()
	d := New(c, fixedProfile(), 1)
	defer func() {
		if recover() == nil {
			t.Fatal("nil callback did not panic")
		}
	}()
	d.ExecuteWake(nil)
}

// TestExternalWake: an external wakeup (a push, the power button) is a
// wake with no work of its own; the device still flushes and dozes.
func TestExternalWake(t *testing.T) {
	c := simclock.New()
	d := New(c, fixedProfile(), 1)
	flushed := false
	d.OnWake(func() { flushed = true })
	d.ExecuteWake(func() {})
	c.Run(simclock.Time(2 * sec))
	if !flushed {
		t.Fatal("external wake did not notify subscribers")
	}
	c.Run(simclock.Time(10 * sec))
	if d.Awake() {
		t.Fatal("device stayed awake after external wake")
	}
}

func TestStochasticLatencyWithinBounds(t *testing.T) {
	p := power.Nexus5()
	for seed := int64(0); seed < 20; seed++ {
		c := simclock.New()
		d := New(c, p, seed)
		var at simclock.Time
		d.ExecuteWake(func() { at = c.Now() })
		c.Run(simclock.Time(5 * sec))
		if at < simclock.Time(p.WakeLatencyMin) || at > simclock.Time(p.WakeLatencyMax) {
			t.Fatalf("seed %d: latency %v outside [%v,%v]", seed, at, p.WakeLatencyMin, p.WakeLatencyMax)
		}
	}
}

func TestRepeatedWakeSleepCycles(t *testing.T) {
	c := simclock.New()
	p := fixedProfile()
	d := New(c, p, 1)
	for i := 0; i < 5; i++ {
		at := simclock.Time(i * 10 * int(sec))
		c.Schedule(at, func() {
			d.ExecuteWake(func() { d.RunTask(hw.MakeSet(hw.WiFi), sec) })
		})
	}
	c.Run(simclock.Time(60 * sec))
	if d.Wakeups() != 5 {
		t.Fatalf("wakeups = %d, want 5", d.Wakeups())
	}
	b := d.Accountant().Snapshot()
	if b.WakeTransitions != 5 {
		t.Fatalf("transitions = %d", b.WakeTransitions)
	}
	// Each cycle: 0.5 latency + 1 task + 0.5 hold = 2 s awake.
	if b.AwakeTime != 10*sec {
		t.Fatalf("awake time = %v, want 10s", b.AwakeTime)
	}
	if d.Awake() {
		t.Fatal("device awake at end")
	}
}

func TestOnTaskObserver(t *testing.T) {
	c := simclock.New()
	d := New(c, fixedProfile(), 1)
	type ev struct {
		tag   string
		start bool
	}
	var evs []ev
	d.OnTask(func(tag string, set hw.Set, start bool) {
		evs = append(evs, ev{tag, start})
	})
	d.ExecuteWake(func() {
		d.RunTaskTagged("sync", hw.MakeSet(hw.WiFi), sec)
	})
	c.Run(simclock.Time(5 * sec))
	if len(evs) != 2 || !evs[0].start || evs[1].start || evs[0].tag != "sync" {
		t.Fatalf("task events = %v", evs)
	}
}

func TestUntaggedRunTaskDelegates(t *testing.T) {
	c := simclock.New()
	d := New(c, fixedProfile(), 1)
	var tags []string
	d.OnTask(func(tag string, _ hw.Set, start bool) {
		if start {
			tags = append(tags, tag)
		}
	})
	d.ExecuteWake(func() { d.RunTask(hw.MakeSet(hw.WiFi), sec) })
	c.Run(simclock.Time(5 * sec))
	if len(tags) != 1 || tags[0] != "" {
		t.Fatalf("tags = %v", tags)
	}
}

func TestSecondWakeRequestWhileAwakeExtendsHold(t *testing.T) {
	c := simclock.New()
	p := fixedProfile()
	d := New(c, p, 1)
	d.ExecuteWake(func() {})
	// Awake at 0.5 s; doze scheduled for 1.0 s. A second request at
	// 0.9 s must reset the hold to 1.4 s.
	c.Schedule(simclock.Time(900*simclock.Millisecond), func() {
		d.ExecuteWake(func() {})
	})
	c.Run(simclock.Time(1300 * simclock.Millisecond))
	if !d.Awake() {
		t.Fatal("hold not extended by second wake request")
	}
	c.Run(simclock.Time(1500 * simclock.Millisecond))
	if d.Awake() {
		t.Fatal("device failed to doze after extended hold")
	}
}

func TestZeroLatencyWakeIsImmediateEvent(t *testing.T) {
	c := simclock.New()
	p := fixedProfile()
	p.WakeLatencyMin, p.WakeLatencyMax = 0, 0
	d := New(c, p, 1)
	ran := false
	d.ExecuteWake(func() { ran = true })
	if ran {
		t.Fatal("zero-latency wake must still go through the event queue")
	}
	c.Run(0)
	if !ran || !d.Awake() {
		t.Fatal("zero-latency wake did not complete at the same instant")
	}
}

// TestWakeTaskCycleAllocatesNothing: the device's callbacks are bound once
// and its tasks, pending-wake lists and the accountant's tail expiries are
// reused, so once one cycle has filled the pools, a whole wake → two
// joined tasks → tail expiry → doze cycle allocates nothing.
func TestWakeTaskCycleAllocatesNothing(t *testing.T) {
	c := simclock.New()
	d := New(c, fixedProfile(), 1)
	sync := func() { d.RunTaskTagged("sync", hw.MakeSet(hw.WiFi, hw.WPS), 2*sec) }
	cycle := func() {
		d.ExecuteWake(sync)
		d.ExecuteWake(sync) // joins the wake in progress
		c.Run(c.Now().Add(10 * simclock.Minute))
	}
	if n := testing.AllocsPerRun(20, cycle); n != 0 {
		t.Fatalf("wake/task/doze cycle allocates %v objects, want 0", n)
	}
	if d.Awake() || d.Wakeups() != 21 || d.TasksActive() != 0 {
		t.Fatalf("cycles did not complete: awake=%v wakeups=%d tasks=%d", d.Awake(), d.Wakeups(), d.TasksActive())
	}
}

// TestResetReclaimsTasksInFlight: tasks still scheduled when their clock
// and device are reset go back to the pool, so the next simulation's
// tasks reuse them and allocate nothing.
func TestResetReclaimsTasksInFlight(t *testing.T) {
	const n = 8
	c := simclock.New()
	p := fixedProfile()
	d := New(c, p, 1)
	tasks := func() {
		for i := 0; i < n; i++ {
			d.RunTaskTagged("sync", hw.MakeSet(hw.WiFi), 2*sec)
		}
	}
	simulate := func() {
		c.Reset()
		d.Reset(c, p, 1)
		d.ExecuteWake(tasks)
		// The wake completes at 0.5 s; the Wi-Fi tasks run back to back
		// until 16.5 s.
		c.Run(simclock.Time(sec))
	}
	simulate()
	if d.TasksActive() != n {
		t.Fatalf("%d tasks in flight, want %d", d.TasksActive(), n)
	}
	if a := testing.AllocsPerRun(20, simulate); a != 0 {
		t.Fatalf("a simulation after reset allocates %v objects, want 0", a)
	}
}
