package sim

import (
	"math"
	"testing"

	"repro/internal/apps"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/simclock"
)

func TestConfigDefaults(t *testing.T) {
	c := Config{Workload: apps.LightWorkload()}.withDefaults()
	if c.Duration != DefaultDuration || c.Beta != DefaultBeta || c.Policy != "NATIVE" {
		t.Fatalf("defaults = %+v", c)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{}, // empty workload
		{Workload: apps.LightWorkload(), Duration: -1},
		{Workload: apps.LightWorkload(), Beta: -0.5},
		{Workload: apps.LightWorkload(), Beta: 1},
		{Workload: apps.LightWorkload(), OneShots: -1},
	}
	for i, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if _, err := Run(Config{Workload: apps.LightWorkload(), Policy: "BOGUS"}); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestPolicyByName(t *testing.T) {
	for _, name := range PolicyNames() {
		p, err := PolicyByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p == nil {
			t.Fatalf("%s: nil policy", name)
		}
	}
	if _, err := PolicyByName("nope"); err == nil {
		t.Fatal("unknown name accepted")
	}
	// Case-insensitive.
	if _, err := PolicyByName("simty"); err != nil {
		t.Fatal(err)
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := Config{Workload: apps.LightWorkload(), Policy: "SIMTY", Seed: 3,
		Duration: 30 * simclock.Duration(simclock.Minute)}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Energy.TotalMJ() != b.Energy.TotalMJ() || len(a.Records) != len(b.Records) ||
		a.FinalWakeups != b.FinalWakeups {
		t.Fatal("same seed produced different runs")
	}
	c, err := Run(Config{Workload: apps.LightWorkload(), Policy: "SIMTY", Seed: 4,
		Duration: 30 * simclock.Duration(simclock.Minute)})
	if err != nil {
		t.Fatal(err)
	}
	if a.Energy.TotalMJ() == c.Energy.TotalMJ() && len(a.Records) == len(c.Records) {
		t.Log("warning: different seeds produced identical aggregate (possible but suspicious)")
	}
}

func TestRunTrials(t *testing.T) {
	rs, err := RunTrials(Config{Workload: apps.LightWorkload(), Policy: "NATIVE",
		Duration: 20 * simclock.Duration(simclock.Minute)}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 3 {
		t.Fatalf("trials = %d", len(rs))
	}
	if rs[0].Config.Seed == rs[1].Config.Seed {
		t.Fatal("trials share a seed")
	}
	if _, err := RunTrials(Config{}, 0); err == nil {
		t.Fatal("zero trials accepted")
	}
}

func TestCollectTrace(t *testing.T) {
	r, err := Run(Config{Workload: apps.LightWorkload(), Policy: "NATIVE",
		Duration: 10 * simclock.Duration(simclock.Minute), CollectTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.Trace == nil || len(r.Trace.Events()) == 0 {
		t.Fatal("trace not collected")
	}
	if len(r.Trace.Deliveries()) != len(r.Records) {
		t.Fatalf("trace deliveries %d != records %d", len(r.Trace.Deliveries()), len(r.Records))
	}
}

// TestSimtyBeatsNative checks the headline result's shape on both
// workloads: SIMTY spends less total and awake energy, wakes the device
// far less often, and extends projected standby time by a two-digit
// percentage, while perceptible alarms stay on time.
func TestSimtyBeatsNative(t *testing.T) {
	for _, wl := range []struct {
		name  string
		specs []apps.Spec
	}{{"light", apps.LightWorkload()}, {"heavy", apps.HeavyWorkload()}} {
		cmp, err := Compare(Config{Workload: wl.specs, SystemAlarms: true, OneShots: 6, Seed: 1},
			"NATIVE", "SIMTY")
		if err != nil {
			t.Fatal(err)
		}
		if s := cmp.TotalSavings(); s < 0.10 || s > 0.45 {
			t.Errorf("%s: total savings = %.1f%%, want within the paper's band", wl.name, s*100)
		}
		if s := cmp.AwakeSavings(); s < 0.15 {
			t.Errorf("%s: awake savings = %.1f%%", wl.name, s*100)
		}
		if e := cmp.StandbyExtension(); e < 0.15 || e > 0.60 {
			t.Errorf("%s: standby extension = %.1f%%", wl.name, e*100)
		}
		if r := cmp.WakeupReduction(); r < 0.40 {
			t.Errorf("%s: wakeup reduction = %.1f%%", wl.name, r*100)
		}
		// Perceptible delays stay (essentially) zero under both: only
		// the sub-second wake latency can appear, a tiny fraction of the
		// repeating interval.
		if cmp.Test.Delays.PerceptibleMean > 0.005 {
			t.Errorf("%s: SIMTY perceptible delay = %.3f%%", wl.name, cmp.Test.Delays.PerceptibleMean*100)
		}
		// Imperceptible delay is the price paid: nonzero but bounded by β.
		if d := cmp.Test.Delays.ImperceptibleMean; d <= 0.01 || d > DefaultBeta {
			t.Errorf("%s: SIMTY imperceptible delay = %.3f", wl.name, d)
		}
		if cmp.Base.Delays.ImperceptibleMean > 0.02 {
			t.Errorf("%s: NATIVE imperceptible delay = %.3f (should be the small latency artifact)",
				wl.name, cmp.Base.Delays.ImperceptibleMean)
		}
	}
}

// TestZeroLatencyRemovesNativeDelay reproduces the paper's explanation of
// Figure 4's NATIVE artifact: the 0.4–0.6% imperceptible delay comes from
// the time the phone needs to resume after the RTC interrupt; with zero
// latency it disappears.
func TestZeroLatencyRemovesNativeDelay(t *testing.T) {
	cfg := Config{Workload: apps.LightWorkload(), SystemAlarms: true, Seed: 2, Policy: "NATIVE",
		ZeroWakeLatency: true}
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.DelaysAll.ImperceptibleMean != 0 || r.DelaysAll.PerceptibleMean != 0 {
		t.Fatalf("zero-latency NATIVE delays = %+v", r.DelaysAll)
	}
	cfg.ZeroWakeLatency = false
	r2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r2.DelaysAll.ImperceptibleMean <= 0 {
		t.Fatal("with latency, the NATIVE artifact should be nonzero")
	}
}

// TestDeliveryGuarantees verifies §3.2's user-experience rules under
// SIMTY with zero wake latency: every perceptible delivery within its
// window, every imperceptible delivery within its grace interval.
func TestDeliveryGuarantees(t *testing.T) {
	r, err := Run(Config{Workload: apps.HeavyWorkload(), SystemAlarms: true, OneShots: 8,
		Policy: "SIMTY", Seed: 5, ZeroWakeLatency: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range r.Records {
		if rec.Perceptible {
			if rec.Delivered > rec.WindowEnd {
				t.Fatalf("perceptible %s delivered at %v after window end %v",
					rec.AlarmID, rec.Delivered, rec.WindowEnd)
			}
		} else if rec.Delivered > rec.GraceEnd {
			t.Fatalf("imperceptible %s delivered at %v after grace end %v",
				rec.AlarmID, rec.Delivered, rec.GraceEnd)
		}
		if rec.Delivered < rec.Nominal {
			t.Fatalf("%s delivered before its nominal time", rec.AlarmID)
		}
	}
}

// TestAdjacentIntervalBounds verifies the §3.2.2 periodicity properties:
// under SIMTY the gap between adjacent deliveries of a repeating alarm is
// at most (1+β)·period for both kinds, at least (1−β)·period for static
// and at least the period for dynamic alarms. Under NATIVE the same holds
// with α in place of β.
func TestAdjacentIntervalBounds(t *testing.T) {
	check := func(policy string, factorOf func(s apps.Spec) float64) {
		r, err := Run(Config{Workload: apps.HeavyWorkload(), Policy: policy, Seed: 7,
			ZeroWakeLatency: true})
		if err != nil {
			t.Fatal(err)
		}
		byName := map[string]apps.Spec{}
		for _, s := range apps.HeavyWorkload() {
			byName[s.Name] = s
		}
		stats := metrics.AdjacentIntervals(r.Records)
		const slack = 1e-9
		for id, st := range stats {
			s, ok := byName[id]
			if !ok {
				continue
			}
			f := factorOf(s)
			p := float64(s.Period)
			if float64(st.Max) > (1+f)*p+slack {
				t.Errorf("%s/%s: max gap %v exceeds (1+%.2f)·period", policy, id, st.Max, f)
			}
			var minBound float64
			if s.Dynamic {
				minBound = p
			} else {
				minBound = (1 - f) * p
			}
			if float64(st.Min) < minBound-slack {
				t.Errorf("%s/%s: min gap %v below bound %.0f", policy, id, st.Min, minBound)
			}
		}
	}
	check("SIMTY", func(s apps.Spec) float64 {
		// Effective grace factor: clamped to at least α (grace ≥ window).
		return math.Max(DefaultBeta, s.Alpha)
	})
	check("NATIVE", func(s apps.Spec) float64 { return s.Alpha })
}

// TestWakeupsApproachLowerBound reproduces §4.2's observation: under
// SIMTY the per-component wakeups approach horizon / (smallest static
// period using that component).
func TestWakeupsApproachLowerBound(t *testing.T) {
	r, err := Run(Config{Workload: apps.HeavyWorkload(), SystemAlarms: true, Seed: 1, Policy: "SIMTY"})
	if err != nil {
		t.Fatal(err)
	}
	bounds := metrics.LeastWakeups(r.Config.Duration, StaticPeriodsByComponent(apps.HeavyWorkload()))
	for _, c := range []hw.Component{hw.WPS, hw.Accelerometer} {
		got := r.Wakeups.Component[c].Wakeups
		bound := bounds[c]
		if bound == 0 {
			t.Fatalf("no bound for %v", c)
		}
		if got < bound-1 {
			t.Errorf("%v: wakeups %d below the least-required bound %d (impossible unless deliveries were skipped)", c, got, bound)
		}
		if float64(got) > 1.35*float64(bound) {
			t.Errorf("%v: wakeups %d do not approach bound %d", c, got, bound)
		}
	}
}

func TestStaticPeriodsByComponent(t *testing.T) {
	m := StaticPeriodsByComponent(apps.HeavyWorkload())
	if len(m[hw.WPS]) != 3 {
		t.Fatalf("WPS static periods = %v", m[hw.WPS])
	}
	if len(m[hw.Accelerometer]) != 2 {
		t.Fatalf("accel static periods = %v", m[hw.Accelerometer])
	}
	// Dynamic Wi-Fi apps must be excluded; static Wi-Fi apps included.
	for _, p := range m[hw.WiFi] {
		if p != 270*simclock.Second && p != 300*simclock.Second && p != 900*simclock.Second {
			t.Fatalf("unexpected static Wi-Fi period %v", p)
		}
	}
}

func TestCompareMismatchedPolicyErrors(t *testing.T) {
	if _, err := Compare(Config{Workload: apps.LightWorkload()}, "NOPE", "SIMTY"); err == nil {
		t.Fatal("bad base policy accepted")
	}
	if _, err := Compare(Config{Workload: apps.LightWorkload()}, "NATIVE", "NOPE"); err == nil {
		t.Fatal("bad test policy accepted")
	}
}

func TestNoAlignBaselineExpectedCounts(t *testing.T) {
	// Under NOALIGN every delivery is its own entry; the number of
	// wakeups can still be lower than deliveries only when deliveries
	// coincide within one awake session.
	r, err := Run(Config{Workload: apps.LightWorkload(), Policy: "NOALIGN", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range r.Records {
		if rec.EntrySize != 1 {
			t.Fatalf("NOALIGN produced a batch of %d", rec.EntrySize)
		}
	}
	if r.Wakeups.CPU.Wakeups > r.Wakeups.CPU.Expected {
		t.Fatal("more wakeups than deliveries")
	}
}

// TestRealignAblation: disabling realignment must still produce a valid
// run; with it enabled the wakeup count should not be larger.
func TestRealignAblation(t *testing.T) {
	base := Config{Workload: apps.LightWorkload(), Policy: "NATIVE", Seed: 1}
	on, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	off := base
	off.DisableRealign = true
	offR, err := Run(off)
	if err != nil {
		t.Fatal(err)
	}
	if on.FinalWakeups <= 0 || offR.FinalWakeups <= 0 {
		t.Fatal("degenerate runs")
	}
	t.Logf("realign on: %d wakeups; off: %d wakeups", on.FinalWakeups, offR.FinalWakeups)
}

// TestDynamicDeliveryCountDropsUnderSimty reproduces Table 4's note: the
// expected (no-alignment) delivery count itself is smaller under SIMTY
// because postponing a dynamic alarm stretches its effective period
// toward (1+β)·ReIn.
func TestDynamicDeliveryCountDropsUnderSimty(t *testing.T) {
	cmp, err := Compare(Config{Workload: apps.LightWorkload(), Seed: 1}, "NATIVE", "SIMTY")
	if err != nil {
		t.Fatal(err)
	}
	count := func(r *Result, app string) int {
		n := 0
		for _, rec := range r.Records {
			if rec.App == app {
				n++
			}
		}
		return n
	}
	// Facebook: 60 s dynamic, α=0 → NATIVE ≈180 deliveries in 3 h; SIMTY
	// postpones each delivery into the grace interval, so the count can
	// drop toward 180/1.96 ≈ 92.
	nat, sim := count(cmp.Base, "Facebook"), count(cmp.Test, "Facebook")
	if nat < 150 {
		t.Errorf("NATIVE Facebook deliveries = %d, want ≈180", nat)
	}
	if sim >= nat {
		t.Errorf("SIMTY Facebook deliveries = %d, want fewer than NATIVE's %d", sim, nat)
	}
	// Static alarms keep their count under both policies.
	natS, simS := count(cmp.Base, "Messenger"), count(cmp.Test, "Messenger")
	if natS != simS {
		t.Errorf("static Messenger deliveries differ: %d vs %d", natS, simS)
	}
}

// TestSeedRobustness: the headline comparison holds across many seeds,
// not just the documented one.
func TestSeedRobustness(t *testing.T) {
	if testing.Short() {
		t.Skip("10-seed sweep")
	}
	for seed := int64(1); seed <= 10; seed++ {
		cmp, err := Compare(Config{Workload: apps.LightWorkload(), SystemAlarms: true, Seed: seed},
			"NATIVE", "SIMTY")
		if err != nil {
			t.Fatal(err)
		}
		if s := cmp.TotalSavings(); s < 0.12 || s > 0.40 {
			t.Errorf("seed %d: total savings %.1f%% out of band", seed, s*100)
		}
		if cmp.Test.Delays.PerceptibleMean > 0.005 {
			t.Errorf("seed %d: perceptible delay %.4f", seed, cmp.Test.Delays.PerceptibleMean)
		}
	}
}
