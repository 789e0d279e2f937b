package anomaly

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/sim"
	"repro/internal/simclock"
)

// TestDetectInjectedNoSleepBug runs the full simulator with one buggy
// app among the paper's light workload, then analyzes the collected
// trace: the detector must name the buggy app, and the bug's energy
// drain must dwarf the healthy run — the "gradually and imperceptibly
// drain device batteries" behaviour the paper opens with.
func TestDetectInjectedNoSleepBug(t *testing.T) {
	buggy := apps.Spec{
		Name:       "LeakyFlashlight",
		Period:     600 * simclock.Second,
		Alpha:      0.75,
		HW:         apps.Table3()[0].HW, // Wi-Fi
		TaskDur:    2 * simclock.Second,
		NoSleepBug: true,
	}
	cfg := sim.Config{
		Workload:     append(apps.LightWorkload(), buggy),
		Seed:         1,
		CollectTrace: true,
	}
	r, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	findings := Analyze(r.Trace.Events(), simclock.Time(r.Config.Duration))
	if len(findings) == 0 {
		t.Fatal("no-sleep bug not detected")
	}
	top := findings[0]
	if top.Kind != NeverReleased {
		t.Fatalf("top finding = %+v, want never-released", top)
	}
	if len(top.Suspects) == 0 || top.Suspects[0] != "LeakyFlashlight" {
		t.Fatalf("buggy app not the primary suspect: %v (task-tag attribution broken)", top.Suspects)
	}

	healthy := cfg
	healthy.Workload = apps.LightWorkload()
	healthy.CollectTrace = false
	h, err := sim.Run(healthy)
	if err != nil {
		t.Fatal(err)
	}
	if r.Energy.TotalMJ() < 1.5*h.Energy.TotalMJ() {
		t.Fatalf("bug drained %.0f mJ vs healthy %.0f mJ — expected a dramatic drain",
			r.Energy.TotalMJ(), h.Energy.TotalMJ())
	}
	// The healthy trace must stay clean.
	h2 := healthy
	h2.CollectTrace = true
	hr, err := sim.Run(h2)
	if err != nil {
		t.Fatal(err)
	}
	if fs := Analyze(hr.Trace.Events(), simclock.Time(r.Config.Duration)); len(fs) != 0 {
		t.Fatalf("healthy workload produced findings: %v", fs)
	}
}
