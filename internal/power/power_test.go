package power

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/hw"
	"repro/internal/simclock"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSleepOnlyEnergy(t *testing.T) {
	c := simclock.New()
	a := new(Accountant)
	a.Reset(c, Nexus5())
	c.Run(simclock.Time(100 * simclock.Second))
	b := a.Snapshot()
	want := 25.0 * 100 // SleepMW * seconds
	if !almost(b.SleepMJ, want, 1e-9) {
		t.Fatalf("SleepMJ = %v, want %v", b.SleepMJ, want)
	}
	if b.AwakeMJ() != 0 {
		t.Fatalf("AwakeMJ = %v, want 0", b.AwakeMJ())
	}
	if b.TotalMJ() != b.SleepMJ {
		t.Fatal("TotalMJ != SleepMJ for sleep-only run")
	}
}

func TestAwakeBaseline(t *testing.T) {
	c := simclock.New()
	p := Nexus5()
	a := new(Accountant)
	a.Reset(c, p)
	c.Run(simclock.Time(10 * simclock.Second))
	a.SetAwake(true)
	c.Run(simclock.Time(30 * simclock.Second))
	a.SetAwake(false)
	c.Run(simclock.Time(50 * simclock.Second))
	b := a.Snapshot()
	if !almost(b.AwakeBaseMJ, p.AwakeBaseMW*20, 1e-9) {
		t.Fatalf("AwakeBaseMJ = %v, want %v", b.AwakeBaseMJ, p.AwakeBaseMW*20)
	}
	if !almost(b.SleepMJ, p.SleepMW*50, 1e-9) {
		t.Fatalf("SleepMJ = %v (sleep floor must accrue while awake too)", b.SleepMJ)
	}
	if b.WakeTransitions != 1 || !almost(b.WakeTransitionsMJ, p.WakeTransitionMJ, 1e-9) {
		t.Fatalf("wake transitions = %d / %v mJ", b.WakeTransitions, b.WakeTransitionsMJ)
	}
	if b.AwakeTime != 20*simclock.Second {
		t.Fatalf("AwakeTime = %v", b.AwakeTime)
	}
}

func TestSetAwakeIdempotent(t *testing.T) {
	c := simclock.New()
	a := new(Accountant)
	a.Reset(c, Nexus5())
	a.SetAwake(true)
	a.SetAwake(true)
	a.SetAwake(false)
	a.SetAwake(false)
	b := a.Snapshot()
	if b.WakeTransitions != 1 {
		t.Fatalf("WakeTransitions = %d, want 1", b.WakeTransitions)
	}
}

func TestComponentActivationAndActive(t *testing.T) {
	c := simclock.New()
	p := Nexus5()
	a := new(Accountant)
	a.Reset(c, p)
	a.ComponentOn(hw.GPS) // GPS has no tail
	c.Run(simclock.Time(4 * simclock.Second))
	a.ComponentOff(hw.GPS)
	c.Run(simclock.Time(20 * simclock.Second))
	b := a.Snapshot()
	want := p.Components[hw.GPS].ActivationMJ + p.Components[hw.GPS].ActiveMW*4
	if !almost(b.ComponentMJ[hw.GPS], want, 1e-9) {
		t.Fatalf("GPS energy = %v, want %v", b.ComponentMJ[hw.GPS], want)
	}
}

func TestComponentTailExtendsPower(t *testing.T) {
	c := simclock.New()
	p := Nexus5()
	a := new(Accountant)
	a.Reset(c, p)
	a.ComponentOn(hw.WiFi)
	c.Run(simclock.Time(2 * simclock.Second))
	a.ComponentOff(hw.WiFi)
	c.Run(simclock.Time(20 * simclock.Second))
	b := a.Snapshot()
	onTime := 2.0 + p.Components[hw.WiFi].Tail.Seconds()
	want := p.Components[hw.WiFi].ActivationMJ + p.Components[hw.WiFi].ActiveMW*onTime
	if !almost(b.ComponentMJ[hw.WiFi], want, 1e-9) {
		t.Fatalf("WiFi energy = %v, want %v (tail must extend powered time)", b.ComponentMJ[hw.WiFi], want)
	}
}

func TestReacquireDuringTailSkipsActivation(t *testing.T) {
	c := simclock.New()
	p := Nexus5()
	a := new(Accountant)
	a.Reset(c, p)
	a.ComponentOn(hw.WiFi)
	c.Run(simclock.Time(1 * simclock.Second))
	a.ComponentOff(hw.WiFi)
	c.Run(simclock.Time(1500 * simclock.Millisecond)) // 0.5 s into the 1.5 s tail
	a.ComponentOn(hw.WiFi)
	c.Run(simclock.Time(2500 * simclock.Millisecond))
	a.ComponentOff(hw.WiFi)
	c.Run(simclock.Time(60 * simclock.Second))
	b := a.Snapshot()
	// One activation; powered continuously from 0 to 2.5s + one tail.
	onTime := 2.5 + p.Components[hw.WiFi].Tail.Seconds()
	want := p.Components[hw.WiFi].ActivationMJ + p.Components[hw.WiFi].ActiveMW*onTime
	if !almost(b.ComponentMJ[hw.WiFi], want, 1e-6) {
		t.Fatalf("WiFi energy = %v, want %v (tail re-acquisition must not re-activate)", b.ComponentMJ[hw.WiFi], want)
	}
}

func TestCurrentPower(t *testing.T) {
	c := simclock.New()
	p := Nexus5()
	a := new(Accountant)
	a.Reset(c, p)
	if got := a.CurrentPowerMW(); got != p.SleepMW {
		t.Fatalf("asleep power = %v", got)
	}
	a.SetAwake(true)
	a.ComponentOn(hw.WiFi)
	want := p.SleepMW + p.AwakeBaseMW + p.Components[hw.WiFi].ActiveMW
	if got := a.CurrentPowerMW(); got != want {
		t.Fatalf("awake+wifi power = %v, want %v", got, want)
	}
}

func TestBareWakeupCalibration(t *testing.T) {
	// The profile is calibrated so a bare wakeup costs ~180 mJ (§2.2).
	got := Nexus5().BareWakeupMJ()
	if !almost(got, 180, 20) {
		t.Fatalf("BareWakeupMJ = %v, want ≈180", got)
	}
}

func TestPerDeliveryCalibration(t *testing.T) {
	// Simulate one solo delivery of each measured alarm class and check
	// against the paper's Monsoon numbers: calendar notification ≈400 mJ,
	// WPS positioning ≈3650 mJ (each including its share of the wakeup).
	deliver := func(set hw.Set, dur simclock.Duration) float64 {
		c := simclock.New()
		p := Nexus5()
		a := new(Accountant)
		a.Reset(c, p)
		base := a.Snapshot().TotalMJ()
		// Wake with mean latency, run task, hold, sleep.
		a.SetAwake(true)
		c.Run(c.Now().Add(p.MeanWakeLatency()))
		a.ComponentOn2(set)
		c.Run(c.Now().Add(dur))
		a.ComponentOff2(set)
		c.Run(c.Now().Add(p.AwakeHold))
		a.SetAwake(false)
		// Let tails run out, then subtract the sleep floor accrued.
		c.Run(c.Now().Add(10 * simclock.Second))
		b := a.Snapshot()
		return b.TotalMJ() - base - b.SleepMJ
	}
	cal := deliver(hw.MakeSet(hw.Speaker, hw.Vibrator), 1*simclock.Second)
	if !almost(cal, 400, 60) {
		t.Errorf("calendar delivery = %.0f mJ, want ≈400", cal)
	}
	wps := deliver(hw.MakeSet(hw.WPS), 1*simclock.Second)
	if !almost(wps, 3650, 250) {
		t.Errorf("WPS delivery = %.0f mJ, want ≈3650", wps)
	}
}

func TestMonitorMatchesAccountant(t *testing.T) {
	c := simclock.New()
	p := Nexus5()
	a := new(Accountant)
	a.Reset(c, p)
	m := NewMonitor(c, a, 100*simclock.Millisecond)
	m.Start()
	// Build a power signal whose transitions all land on 100 ms grid.
	c.Schedule(simclock.Time(1*simclock.Second), func() { a.SetAwake(true) })
	c.Schedule(simclock.Time(2*simclock.Second), func() { a.ComponentOn(hw.WPS) })
	c.Schedule(simclock.Time(4*simclock.Second), func() { a.ComponentOff(hw.WPS) })
	c.Schedule(simclock.Time(5*simclock.Second), func() { a.SetAwake(false) })
	c.Run(simclock.Time(10 * simclock.Second))
	b := a.Snapshot()
	// Monitor misses the impulse-like overheads (activation, transition)
	// but must reproduce the time-integrated part exactly.
	integrated := b.TotalMJ() - b.WakeTransitionsMJ - p.Components[hw.WPS].ActivationMJ
	if !almost(m.EnergyMJ(), integrated, 1e-6) {
		t.Fatalf("monitor energy = %v, accountant integrated = %v", m.EnergyMJ(), integrated)
	}
	if m.PeakMW() != p.SleepMW+p.AwakeBaseMW+p.Components[hw.WPS].ActiveMW {
		t.Fatalf("peak = %v", m.PeakMW())
	}
}

func TestMonitorStartStop(t *testing.T) {
	c := simclock.New()
	a := new(Accountant)
	a.Reset(c, Nexus5())
	m := NewMonitor(c, a, simclock.Second)
	m.Start()
	m.Start() // idempotent
	c.Run(simclock.Time(5 * simclock.Second))
	n := len(m.Samples())
	m.Stop()
	m.Stop() // idempotent
	c.Run(simclock.Time(20 * simclock.Second))
	if len(m.Samples()) != n {
		t.Fatal("monitor kept sampling after Stop")
	}
	if n != 6 { // t=0..5 inclusive
		t.Fatalf("samples = %d, want 6", n)
	}
}

func TestMonitorCSV(t *testing.T) {
	c := simclock.New()
	a := new(Accountant)
	a.Reset(c, Nexus5())
	m := NewMonitor(c, a, simclock.Second)
	m.Start()
	c.Run(simclock.Time(2 * simclock.Second))
	var sb strings.Builder
	if err := m.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 4 || lines[0] != "time_ms,power_mw" {
		t.Fatalf("csv = %q", sb.String())
	}
}

func TestMonitorBadPeriodPanics(t *testing.T) {
	c := simclock.New()
	a := new(Accountant)
	a.Reset(c, Nexus5())
	defer func() {
		if recover() == nil {
			t.Fatal("zero period did not panic")
		}
	}()
	NewMonitor(c, a, 0)
}

func TestStandbyHours(t *testing.T) {
	p := Nexus5()
	b := Breakdown{SleepMJ: p.SleepMW * 3600, Elapsed: simclock.Duration(simclock.Hour)}
	// Pure sleep at 25 mW: 8740 mWh / 25 mW = 349.6 h.
	got := p.StandbyHours(b)
	if !almost(got, 349.6, 0.5) {
		t.Fatalf("StandbyHours = %v, want ≈349.6", got)
	}
	if p.StandbyHours(Breakdown{}) != 0 {
		t.Fatal("StandbyHours of empty breakdown should be 0")
	}
}

func TestBreakdownString(t *testing.T) {
	b := Breakdown{SleepMJ: 10, AwakeBaseMJ: 5, WakeTransitionsMJ: 2, WakeTransitions: 1}
	if !strings.Contains(b.String(), "total 17 mJ") {
		t.Fatalf("String = %q", b.String())
	}
}

// Property: energy is additive and non-negative for arbitrary awake
// interval patterns.
func TestPropertyEnergyMonotone(t *testing.T) {
	prop := func(durations []uint8) bool {
		c := simclock.New()
		a := new(Accountant)
		a.Reset(c, Nexus5())
		awake := false
		prev := 0.0
		for _, d := range durations {
			awake = !awake
			a.SetAwake(awake)
			c.Run(c.Now().Add(simclock.Duration(d) * simclock.Millisecond))
			b := a.Snapshot()
			if b.TotalMJ() < prev-1e-9 {
				return false
			}
			prev = b.TotalMJ()
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// ComponentOn2/Off2 are tiny helpers so tests can acquire sets directly.
func (a *Accountant) ComponentOn2(s hw.Set) {
	for _, c := range s.Components() {
		a.ComponentOn(c)
	}
}
func (a *Accountant) ComponentOff2(s hw.Set) {
	for _, c := range s.Components() {
		a.ComponentOff(c)
	}
}

func TestBattery(t *testing.T) {
	b := NewBattery(100)
	if b.CapacityMJ() != 100 || b.SoC() != 1 || b.Empty() {
		t.Fatal("fresh battery wrong")
	}
	b.Drain(40)
	if b.SoC() != 0.6 || b.Empty() {
		t.Fatalf("SoC = %v", b.SoC())
	}
	b.Drain(70)
	if !b.Empty() || b.SoC() != 0 {
		t.Fatalf("over-drained battery: SoC=%v empty=%v", b.SoC(), b.Empty())
	}
	if b.String() != "0.0%" {
		t.Fatalf("String = %q", b.String())
	}
}

func TestBatteryNegativeDrainPanics(t *testing.T) {
	b := NewBattery(100)
	defer func() {
		if recover() == nil {
			t.Fatal("negative drain did not panic")
		}
	}()
	b.Drain(-1)
}

func TestBatteryBadCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero capacity did not panic")
		}
	}()
	NewBattery(0)
}

// Property: for any random piecewise-constant signal whose transitions
// land on the sampling grid, the monitor's integral equals the
// accountant's time-proportional energy exactly.
func TestPropertyMonitorMatchesAccountant(t *testing.T) {
	prop := func(steps []uint8) bool {
		c := simclock.New()
		p := Nexus5()
		a := new(Accountant)
		a.Reset(c, p)
		m := NewMonitor(c, a, 100*simclock.Millisecond)
		at := simclock.Time(0)
		activations := 0.0
		transitions := 0
		onGPS := false
		awake := false
		for _, s := range steps {
			at = at.Add(simclock.Duration(1+int(s)%20) * 100 * simclock.Millisecond)
			switch s % 3 {
			case 0:
				v := !awake
				awake = v
				if v {
					transitions++
				}
				c.Schedule(at, func() { a.SetAwake(v) })
			case 1:
				if !onGPS {
					onGPS = true
					activations += p.Components[hw.GPS].ActivationMJ
					c.Schedule(at, func() { a.ComponentOn(hw.GPS) })
				}
			case 2:
				if onGPS {
					onGPS = false
					c.Schedule(at, func() { a.ComponentOff(hw.GPS) })
				}
			}
		}
		// Start after scheduling so that, at coincident instants, the
		// monitor's tick fires after the state change (left-rectangle
		// sampling of the post-transition value).
		m.Start()
		c.Run(at.Add(simclock.Second))
		b := a.Snapshot()
		integrated := b.TotalMJ() - b.WakeTransitionsMJ - activations
		return math.Abs(m.EnergyMJ()-integrated) < 1e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
