package main

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/apps"
	"repro/internal/metrics"
	"repro/internal/power"
	"repro/internal/sim"
)

// deviceSeeds is how many seeds the device workloads rotate through.
const deviceSeeds = 16

// outcome is every simulated statistic of one device-run as a comparable
// value: two runs simulated the same iff their outcomes are ==.
type outcome struct {
	Energy            power.Breakdown
	StandbyHours      float64
	Delays, DelaysAll metrics.DelayStats
	Wakeups           metrics.Breakdown
	SpkVib            metrics.Row
	Guarantees        metrics.Guarantees
	WakeGaps          metrics.IntervalStats
	AoI               metrics.AoIStats
	FinalWakeups      int
	Pushes            int
}

func outcomeOf(r *sim.Result) outcome {
	return outcome{
		Energy: r.Energy, StandbyHours: r.StandbyHours,
		Delays: r.Delays, DelaysAll: r.DelaysAll, Wakeups: r.Wakeups, SpkVib: r.SpkVib,
		Guarantees: r.Guarantees, WakeGaps: r.WakeGaps, AoI: r.AoI,
		FinalWakeups: r.FinalWakeups, Pushes: r.Pushes,
	}
}

// deviceConfigs is a device workload's input: the paper's heavy workload
// (Table 3, system alarms, 6 one-shots) or, dense, 10 copies of the light
// workload plus system alarms — both 3 h under SIMTY in NoTrace mode, one
// configuration per seed.
func deviceConfigs(dense bool, seed int64) []sim.Config {
	base := sim.Config{Policy: "SIMTY", Workload: apps.HeavyWorkload(), SystemAlarms: true, OneShots: 6, NoTrace: true}
	name := "heavy"
	if dense {
		base.Workload, base.OneShots, name = replicate(apps.LightWorkload(), 10), 0, "dense"
	}
	cfgs := make([]sim.Config, deviceSeeds)
	for i := range cfgs {
		cfgs[i] = base
		cfgs[i].Seed = seed + int64(i)
		cfgs[i].Name = fmt.Sprintf("%s-seed%d", name, cfgs[i].Seed)
	}
	return cfgs
}

// replicate installs copies of the workload, renaming every copy after
// the first the way examples/sweep's large-population grid does.
func replicate(specs []apps.Spec, copies int) []apps.Spec {
	out := make([]apps.Spec, 0, copies*len(specs))
	for c := 0; c < copies; c++ {
		for _, s := range specs {
			if c > 0 {
				s.Name = fmt.Sprintf("%s#%d", s.Name, c)
			}
			out = append(out, s)
		}
	}
	return out
}

// runDevice is device-heavy (dense false) and device-dense: a closed loop
// on one goroutine calling sim.Run, seeds in rotation. The set-up runs
// every seed in NoTrace mode and in retained mode, which must agree
// (NoTrace parity) and must repeat across set-up repetitions; every timed
// run must then equal its seed's set-up run.
func runDevice(b *bench, dense bool) error {
	var cfgs []sim.Config
	var want []outcome
	err := b.setup(func(rep int) error {
		cfgs = deviceConfigs(dense, b.seed)
		got := make([]outcome, len(cfgs))
		for i, c := range cfgs {
			r, err := sim.Run(c)
			if err != nil {
				return err
			}
			got[i] = outcomeOf(r)
			c.NoTrace = false
			if r, err = sim.Run(c); err != nil {
				return err
			}
			b.verify(outcomeOf(r) == got[i], "NoTrace run of %s differs from the retained-mode reference", c.Name)
			if rep > 0 {
				b.verify(got[i] == want[i], "set-up repetition %d of %s differs from the first", rep, c.Name)
			}
		}
		want = got
		return nil
	})
	if err != nil {
		return err
	}

	traced := make([]sim.Config, len(cfgs))
	for i, c := range cfgs {
		if traced[i], err = instrument(c, &b.layers); err != nil {
			return err
		}
	}
	best := make([]float64, len(cfgs))
	next := 0
	lat := make([]float64, 1)
	err = b.measure(1, func(tr bool, _ time.Duration) ([]float64, int, error) {
		i := next % len(cfgs)
		next++
		c := cfgs[i]
		if tr {
			c = traced[i]
			b.layers.runs++
		}
		start := time.Now()
		r, err := sim.Run(c)
		lat[0] = ms(time.Since(start))
		if err != nil {
			return nil, 0, err
		}
		if outcomeOf(r) != want[i] {
			b.fail("timed run of %s differs from its set-up run", c.Name)
		}
		if !tr && (best[i] == 0 || lat[0] < best[i]) {
			best[i] = lat[0]
		}
		return lat, 1, nil
	})
	if err != nil {
		return err
	}
	b.emit("latency_ms_best", quantile(best, 0.5), "ms", len(best))

	blob, err := json.Marshal(want)
	if err != nil {
		return err
	}
	b.digest(blob)
	if b.trace {
		return b.replayLayers(cfgs)
	}
	return nil
}
