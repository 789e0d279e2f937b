package anomaly

import (
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/simclock"
)

// TestDetectFaultPlanLeak is the satellite e2e test for the fault
// subsystem: a sim.Config with a fault plan (no hand-rolled buggy spec)
// leaks a wakelock, the detector flags it as HeldTooLong or
// NeverReleased, and the leaky app is the primary suspect — the fault
// events recorded in the trace promote it over innocent apps that
// merely touched the same component. The whole pipeline is
// deterministic: two identical runs yield identical findings.
func TestDetectFaultPlanLeak(t *testing.T) {
	run := func() ([]Finding, *sim.Result) {
		cfg := sim.Config{
			Workload:     apps.LightWorkload(),
			Policy:       "NATIVE",
			Seed:         4,
			CollectTrace: true,
			Faults: &fault.Plan{
				Leaks: []fault.Leak{{App: "KakaoTalk", Mode: fault.LeakNever, AfterDeliveries: 1}},
			},
		}
		r, err := sim.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return Analyze(r.Trace.Events(), simclock.Time(r.Config.Duration)), r
	}

	findings, r := run()
	if len(findings) == 0 {
		t.Fatal("injected leak not detected")
	}
	top := findings[0]
	if top.Kind != NeverReleased && top.Kind != HeldTooLong {
		t.Fatalf("top finding kind = %v", top.Kind)
	}
	if len(top.Suspects) == 0 || top.Suspects[0] != "KakaoTalk" {
		t.Fatalf("leaky app not the primary suspect: %v", top.Suspects)
	}

	leaked := false
	for _, e := range r.FaultEvents {
		if e.Kind == "leak" && e.App == "KakaoTalk" {
			leaked = true
		}
	}
	if !leaked {
		t.Fatalf("no leak event recorded: %v", r.FaultEvents)
	}

	// Same seed, same plan → identical findings, event for event.
	again, _ := run()
	if !reflect.DeepEqual(findings, again) {
		t.Fatalf("findings diverged across identical runs:\n%v\nvs\n%v", findings, again)
	}
}

// TestDetectFaultPlanHeldTooLong covers the other leak mode: a held-
// too-long leak (released eventually, far past the threshold) is
// detected and attributed through the fault-event promotion path.
func TestDetectFaultPlanHeldTooLong(t *testing.T) {
	cfg := sim.Config{
		Workload:     apps.LightWorkload(),
		Policy:       "NATIVE",
		Seed:         2,
		CollectTrace: true,
		Faults: &fault.Plan{
			Leaks: []fault.Leak{{App: "Weibo", Mode: fault.LeakLate, Extra: 10 * simclock.Minute}},
		},
	}
	r, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	findings := Analyze(r.Trace.Events(), simclock.Time(r.Config.Duration))
	if len(findings) == 0 {
		t.Fatal("held-too-long leak not detected")
	}
	found := false
	for _, f := range findings {
		for _, s := range f.Suspects {
			if s == "Weibo" {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("Weibo absent from every finding: %v", findings)
	}
}
