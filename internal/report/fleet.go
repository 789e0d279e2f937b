package report

import (
	"context"
	"fmt"
	"time"

	"repro/internal/fleet"
	"repro/internal/shardexec"
	"repro/internal/sim"
	"repro/internal/simclock"
)

// fleetSpec is the heterogeneous population the fleet experiment
// simulates: every sampled dimension is exercised, approximating the
// device diversity a production wakeup-management service would face.
func fleetSpec(o Options) fleet.Spec {
	return fleet.Spec{
		Devices:        o.FleetDevices,
		Seed:           o.Seed,
		Hours:          float64(o.Duration) / float64(simclock.Hour),
		Apps:           fleet.IntRange{Min: 4, Max: 12},
		OneShots:       fleet.IntRange{Min: 0, Max: 6},
		PushesPerHour:  fleet.Range{Min: 0, Max: 4},
		ScreensPerHour: fleet.Range{Min: 0, Max: 2},
		TaskJitter:     fleet.Range{Min: 0, Max: 0.3},
		BatteryScale:   fleet.Range{Min: 0.9, Max: 1.1},
		LeakFraction:   0.05,
	}
}

// fleetProgress adapts a fleet's device progress to o.Progress, nil
// when o.Progress is: one line per fleet percentile, which keeps
// -progress readable at 10k devices, named after the fleet and its last
// device and carrying the wall time since the previous line.
func fleetProgress(o Options, name string) func(done, total int) {
	if o.Progress == nil {
		return nil
	}
	last := time.Now()
	return func(done, total int) {
		if step := total / 100; step <= 1 || done%step == 0 || done == total {
			o.Progress(sim.Progress{Done: done, Total: total,
				Name: fmt.Sprintf("%s dev%06d", name, done-1), Wall: time.Since(last)})
			last = time.Now()
		}
	}
}

// Fleet scales the paper's single-device comparison to a simulated
// population: the NATIVE-vs-SIMTY savings distribution across
// heterogeneous devices, streamed through memory-bounded aggregates.
// Options.Procs picks the execution shape (see shardexec.Run); the
// table is byte-identical in every shape.
func Fleet(o Options) (*Table, error) {
	o = o.withDefaults()
	r, err := shardexec.Run(context.Background(), fleetSpec(o), shardexec.Options{
		Procs:    o.Procs,
		Workers:  o.Workers,
		Progress: fleetProgress(o, "fleet"),
	})
	if err != nil {
		return nil, err
	}
	s := r.Agg.Summary()

	t := &Table{ID: "fleet",
		Title: fmt.Sprintf("Fleet: %s vs %s across %d heterogeneous devices (%.1f h horizon)",
			s.BasePolicy, s.TestPolicy, s.Devices, s.Hours),
		Columns: []string{"metric", "mean", "±CI95", "P50", "P95", "P99", "min", "max"}}
	addDist := func(name string, d fleet.Dist, scale float64, decimals int) {
		f := func(v float64) string { return fmt.Sprintf("%.*f", decimals, v*scale) }
		t.AddRow(name, f(d.Mean), f(d.CI95), f(d.P50), f(d.P95), f(d.P99), f(d.Min), f(d.Max))
	}
	addDist("total savings (%)", s.Savings.Total, 100, 1)
	addDist("awake savings (%)", s.Savings.Awake, 100, 1)
	addDist("standby extension (%)", s.Savings.StandbyExtension, 100, 1)
	addDist("wakeup reduction (%)", s.Savings.WakeupReduction, 100, 1)
	addDist(s.BasePolicy+" wakeups", s.Base.Wakeups, 1, 0)
	addDist(s.TestPolicy+" wakeups", s.Test.Wakeups, 1, 0)
	addDist(s.BasePolicy+" energy (J)", s.Base.EnergyMJ, 1e-3, 1)
	addDist(s.TestPolicy+" energy (J)", s.Test.EnergyMJ, 1e-3, 1)
	addDist(s.TestPolicy+" imperc delay (%)", s.Test.ImperceptibleDelay, 100, 1)

	t.AddNote("%d devices (%d with an injected wakelock leak) streamed through online aggregates in %.1fs; P50/P95/P99 are within 2⁻⁷ (relative) of the exact quantiles.",
		s.Devices, s.LeakyDevices, r.Wall.Seconds())
	t.AddNote("%s delivered %d perceptible alarms past their window (max normalized delay %.3f); %d wakeup alarms past grace. Nonzero counts under real wake latency come from the 0.4–1.4 s resume time, not the policy.",
		s.TestPolicy, s.Test.PerceptibleLate, s.Test.MaxPerceptibleDelay, s.Test.GraceLate)
	return t, nil
}
