package sim

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/apps"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/simclock"
)

// randomWorkload decodes a byte vector into a plausible workload of
// random periods, window factors, repeat kinds, and hardware classes.
func randomWorkload(genes []byte) []apps.Spec {
	hwChoices := []struct {
		set hw.Set
		dur simclock.Duration
	}{
		{hw.MakeSet(hw.WiFi), 2 * simclock.Second},
		{hw.MakeSet(hw.WPS), simclock.Second},
		{hw.MakeSet(hw.Accelerometer), 2 * simclock.Second},
		{hw.MakeSet(hw.Speaker, hw.Vibrator), simclock.Second},
		{0, 500 * simclock.Millisecond}, // CPU-only
	}
	alphas := []float64{0, 0.25, 0.5, 0.75}
	var specs []apps.Spec
	for i := 0; i+3 < len(genes) && len(specs) < 24; i += 4 {
		period := simclock.Duration(30+int(genes[i])%600) * simclock.Second
		c := hwChoices[int(genes[i+1])%len(hwChoices)]
		specs = append(specs, apps.Spec{
			Name:    fmt.Sprintf("rand.%02d", len(specs)),
			Period:  period,
			Alpha:   alphas[int(genes[i+2])%len(alphas)],
			Dynamic: genes[i+3]%2 == 0,
			HW:      c.set,
			TaskDur: c.dur,
		})
	}
	return specs
}

// TestPropertyGuaranteesAcrossPolicies: for random workloads, with zero
// wake latency, (1) SIMTY and NATIVE never deliver a perceptible alarm
// outside its window nor any wakeup alarm outside its grace interval,
// (2) no alarm is ever delivered before its nominal time under any
// policy, and (3) the device wakeup count never exceeds NOALIGN's
// delivery count.
func TestPropertyGuaranteesAcrossPolicies(t *testing.T) {
	oneHour := simclock.Duration(simclock.Hour)
	prop := func(genes []byte, seed int16) bool {
		specs := randomWorkload(genes)
		if len(specs) == 0 {
			return true
		}
		for _, policy := range []string{"NATIVE", "SIMTY", "NOALIGN", "INTERVAL"} {
			r, err := Run(Config{Workload: specs, Policy: policy, Seed: int64(seed),
				Duration: oneHour, ZeroWakeLatency: true})
			if err != nil {
				t.Logf("%s: %v", policy, err)
				return false
			}
			for _, rec := range r.Records {
				if rec.Delivered < rec.Nominal {
					t.Logf("%s: %s delivered before nominal", policy, rec.AlarmID)
					return false
				}
				if policy == "SIMTY" || policy == "NATIVE" {
					if rec.Perceptible && rec.Delivered > rec.WindowEnd {
						t.Logf("%s: perceptible %s outside window", policy, rec.AlarmID)
						return false
					}
					if rec.Delivered > rec.GraceEnd {
						t.Logf("%s: %s outside grace", policy, rec.AlarmID)
						return false
					}
				}
			}
			if r.FinalWakeups > len(r.Records) {
				t.Logf("%s: more wakeups (%d) than deliveries (%d)", policy, r.FinalWakeups, len(r.Records))
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyNoDeliveryBeforeNominal: under every registered policy,
// no alarm of the heavy workload with faultPlan() is delivered before
// its nominal time. The plan's storm re-registers its alarm from the
// alarm's own delivery callback, before the manager builds that
// delivery's record; rewriting the alarm being delivered would stamp the
// record with the next nominal time, after the delivery.
func TestPropertyNoDeliveryBeforeNominal(t *testing.T) {
	for _, policy := range PolicyNames() {
		r, err := Run(Config{Policy: policy, Workload: apps.HeavyWorkload(), SystemAlarms: true, OneShots: 6,
			Seed: 1, Faults: faultPlan()})
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		early, storms := 0, 0
		for _, rec := range r.Records {
			if rec.Delivered < rec.Nominal {
				if early == 0 {
					t.Errorf("%s: %s delivered at %v, before its nominal %v", policy, rec.AlarmID, rec.Delivered, rec.Nominal)
				}
				early++
			}
			if rec.App == "rogue" {
				storms++
			}
		}
		if early > 0 {
			t.Errorf("%s: %d of %d records delivered before their nominal time", policy, early, len(r.Records))
		}
		if storms == 0 {
			t.Fatalf("%s: no storm delivery — test exercises less than it claims", policy)
		}
	}
}

// TestPropertyStaticCountsPolicyInvariant: static repeating alarms are
// delivered once per period regardless of the alignment policy (the
// §3.2.2 "once and only once in every repeating interval" property), so
// their delivery counts agree across policies to within one.
func TestPropertyStaticCountsPolicyInvariant(t *testing.T) {
	oneHour := simclock.Duration(simclock.Hour)
	prop := func(genes []byte, seed int16) bool {
		specs := randomWorkload(genes)
		var statics []apps.Spec
		for _, s := range specs {
			if !s.Dynamic {
				statics = append(statics, s)
			}
		}
		if len(statics) == 0 {
			return true
		}
		counts := map[string]map[string]int{}
		for _, policy := range []string{"NATIVE", "SIMTY", "NOALIGN"} {
			r, err := Run(Config{Workload: statics, Policy: policy, Seed: int64(seed),
				Duration: oneHour, ZeroWakeLatency: true})
			if err != nil {
				return false
			}
			counts[policy] = metrics.CountByApp(r.Records)
		}
		for _, s := range statics {
			a, b, c := counts["NATIVE"][s.Name], counts["SIMTY"][s.Name], counts["NOALIGN"][s.Name]
			if absInt(a-b) > 1 || absInt(a-c) > 1 {
				t.Logf("%s (period %v): NATIVE %d, SIMTY %d, NOALIGN %d", s.Name, s.Period, a, b, c)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertySimtyWakesFewerOnAverage: "SIMTY uses fewer wakeups than
// NATIVE" is not a per-workload invariant — a postponed alarm can land
// in a different batch and occasionally cost a session — but it holds
// overwhelmingly in aggregate. Across an ensemble of random workloads,
// the mean wakeup ratio must be well below 1 and regressions beyond
// +30%% on any single workload are flagged.
func TestPropertySimtyWakesFewerOnAverage(t *testing.T) {
	oneHour := simclock.Duration(simclock.Hour)
	rng := simclock.Rand(99)
	var ratios []float64
	for trial := 0; trial < 30; trial++ {
		genes := make([]byte, 40)
		rng.Read(genes)
		specs := randomWorkload(genes)
		n, err := Run(Config{Workload: specs, Policy: "NATIVE", Seed: int64(trial),
			Duration: oneHour, ZeroWakeLatency: true})
		if err != nil {
			t.Fatal(err)
		}
		s, err := Run(Config{Workload: specs, Policy: "SIMTY", Seed: int64(trial),
			Duration: oneHour, ZeroWakeLatency: true})
		if err != nil {
			t.Fatal(err)
		}
		if n.FinalWakeups == 0 {
			continue
		}
		ratio := float64(s.FinalWakeups) / float64(n.FinalWakeups)
		if ratio > 1.3 {
			t.Errorf("trial %d: SIMTY %d wakeups vs NATIVE %d (ratio %.2f)",
				trial, s.FinalWakeups, n.FinalWakeups, ratio)
		}
		ratios = append(ratios, ratio)
	}
	var sum float64
	for _, r := range ratios {
		sum += r
	}
	if mean := sum / float64(len(ratios)); mean > 0.85 {
		t.Fatalf("mean SIMTY/NATIVE wakeup ratio = %.2f, want well below 1", mean)
	}
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// TestMetamorphicSimtyNeverWakesMoreThanNoalign: SIMTY only merges
// deliveries that NOALIGN performs separately, so per workload its device
// wakeup count never exceeds NOALIGN's. Unlike the SIMTY-vs-NATIVE
// relation this one is strict: NOALIGN never moves a delivery, so there
// is no realignment cascade for SIMTY to lose against.
func TestMetamorphicSimtyNeverWakesMoreThanNoalign(t *testing.T) {
	oneHour := simclock.Duration(simclock.Hour)
	rng := simclock.Rand(1234)
	checked := 0
	for trial := 0; trial < 40; trial++ {
		genes := make([]byte, 48)
		rng.Read(genes)
		specs := randomWorkload(genes)
		if len(specs) == 0 {
			continue
		}
		s, err := Run(Config{Workload: specs, Policy: "SIMTY", Seed: int64(trial),
			Duration: oneHour, ZeroWakeLatency: true})
		if err != nil {
			t.Fatal(err)
		}
		n, err := Run(Config{Workload: specs, Policy: "NOALIGN", Seed: int64(trial),
			Duration: oneHour, ZeroWakeLatency: true})
		if err != nil {
			t.Fatal(err)
		}
		if s.FinalWakeups > n.FinalWakeups {
			t.Errorf("trial %d: SIMTY %d wakeups > NOALIGN %d", trial, s.FinalWakeups, n.FinalWakeups)
		}
		checked++
	}
	if checked < 30 {
		t.Fatalf("only %d non-empty workloads checked", checked)
	}
}

// TestMetamorphicAddingAppIsMonotone: appending an app to a workload
// (appending, so the original apps' phase draws are untouched) never
// reduces the total number of alarm deliveries under any policy. Device
// *wakeups* are deliberately held to a weaker standard: a new alarm can
// become an alignment anchor that merges previously-separate sessions,
// so aligning policies occasionally wake a few times less after an app
// is added (observed up to ~16% on dense mixes). The test bounds that
// dip per workload and requires the ensemble mean wakeup delta to be
// positive.
func TestMetamorphicAddingAppIsMonotone(t *testing.T) {
	oneHour := simclock.Duration(simclock.Hour)
	extra := apps.Spec{Name: "rand.extra", Period: 240 * simclock.Second,
		Alpha: 0.5, HW: hw.MakeSet(hw.WiFi), TaskDur: 2 * simclock.Second}
	rng := simclock.Rand(4321)
	var deltaSum float64
	pairs := 0
	for trial := 0; trial < 25; trial++ {
		genes := make([]byte, 40)
		rng.Read(genes)
		specs := randomWorkload(genes)
		if len(specs) == 0 {
			continue
		}
		bigger := append(append([]apps.Spec{}, specs...), extra)
		for _, policy := range []string{"NATIVE", "SIMTY", "NOALIGN"} {
			small, err := Run(Config{Workload: specs, Policy: policy, Seed: int64(trial),
				Duration: oneHour, ZeroWakeLatency: true})
			if err != nil {
				t.Fatal(err)
			}
			big, err := Run(Config{Workload: bigger, Policy: policy, Seed: int64(trial),
				Duration: oneHour, ZeroWakeLatency: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(big.Records) < len(small.Records) {
				t.Errorf("trial %d %s: deliveries fell %d -> %d after adding an app",
					trial, policy, len(small.Records), len(big.Records))
			}
			dip := small.FinalWakeups - big.FinalWakeups
			if limit := maxInt(6, small.FinalWakeups/4); dip > limit {
				t.Errorf("trial %d %s: wakeups fell %d -> %d (dip %d > limit %d)",
					trial, policy, small.FinalWakeups, big.FinalWakeups, dip, limit)
			}
			deltaSum += float64(big.FinalWakeups - small.FinalWakeups)
			pairs++
		}
	}
	if pairs == 0 {
		t.Fatal("no non-empty workloads generated")
	}
	if mean := deltaSum / float64(pairs); mean <= 0 {
		t.Errorf("mean wakeup delta after adding an app = %.2f, want positive", mean)
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
