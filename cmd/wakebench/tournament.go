package main

import (
	"bytes"
	"context"
	"encoding/json"
	"time"

	"repro/internal/fleet"
	"repro/internal/sim"
	"repro/internal/tournament"
)

// runTournament is the tournament workload: tournament.Run of the default
// spec in a closed loop, at least three times, timed per cell from its
// Progress callbacks. The scoreboard must be byte-stable across
// repetitions and no cell may break the perceptible-delivery guarantee.
func runTournament(b *bench) error {
	devices, warm := 96, 8
	if b.short {
		devices, warm = 4, 2
	}
	spec := tournament.Spec{Seed: b.seed, Devices: devices}
	err := b.setup(func(int) error {
		_, err := tournament.Run(context.Background(), tournament.Spec{Seed: b.seed, Devices: warm}, tournament.Options{})
		return err
	})
	if err != nil {
		return err
	}

	var want []byte
	cells := map[string][]float64{}
	best := map[string]float64{}
	var tournaments []float64
	err = b.measure(3, func(traced bool, _ time.Duration) ([]float64, int, error) {
		var lat []float64
		start := time.Now()
		last := start
		sb, err := tournament.Run(context.Background(), spec, tournament.Options{
			Progress: func(regime, policy string, _, _ int) {
				now := time.Now()
				d := ms(now.Sub(last))
				lat = append(lat, d)
				cells[regime] = append(cells[regime], now.Sub(last).Seconds())
				if k := regime + "/" + policy; !traced && (best[k] == 0 || d < best[k]) {
					best[k] = d
				}
				last = now
			},
		})
		if !traced {
			tournaments = append(tournaments, time.Since(start).Seconds())
		}
		if err != nil {
			return nil, 0, err
		}
		for _, rr := range sb.Regimes {
			for _, c := range rr.Cells {
				if c.PerceptibleLate != 0 {
					b.fail("regime %s: %s delivered %d perceptible alarms late", rr.Regime, c.Policy, c.PerceptibleLate)
				}
			}
		}
		blob, err := json.Marshal(sb)
		if err != nil {
			return nil, 0, err
		}
		if want == nil {
			want = blob
		} else if !bytes.Equal(blob, want) {
			b.fail("scoreboard differs from the first repetition's")
		}
		return lat, 2 * devices * len(lat), nil
	})
	if err != nil {
		return err
	}
	var bests []float64
	for _, v := range best {
		bests = append(bests, v)
	}
	b.emit("latency_ms_best", quantile(bests, 0.5), "ms", len(bests))
	b.emit("tournament_cell_s", total(tournaments)/float64(len(tournaments)*len(best)), "s", len(tournaments)*len(best))
	b.digest(want)
	if !b.trace {
		return nil
	}
	for _, r := range tournament.DefaultRegimes() {
		b.emit("tournament.cell_s."+r.Name, quantile(cells[r.Name], 0.5), "s", len(cells[r.Name]))
	}
	return b.replayLayers(tournamentSample(spec, 2))
}

// tournamentSample is the first n devices of every regime under the base
// policy and every entrant. The fleet spec of a cell mirrors the one
// tournament.Run simulates: the regime's population knobs, zero wake
// latency, base against entrant.
func tournamentSample(spec tournament.Spec, n int) []sim.Config {
	spec = spec.WithDefaults()
	var cfgs []sim.Config
	for _, r := range spec.Regimes {
		fs := fleet.Spec{
			Devices: spec.Devices, Seed: spec.Seed, Hours: r.Hours, Beta: spec.Beta,
			BasePolicy: spec.Base, SystemAlarms: r.SystemAlarms, Apps: r.Apps,
			PushesPerHour: r.PushesPerHour, ScreensPerHour: r.ScreensPerHour,
			Diurnal: r.Diurnal, Catalog: r.Catalog, AlignedPhases: r.AlignedPhases,
			ZeroWakeLatency: true,
		}.WithDefaults()
		for i := 0; i < n && i < spec.Devices; i++ {
			d := fs.SampleDevice(i)
			for _, p := range append([]string{spec.Base}, spec.Policies...) {
				c := fs.Config(d, p)
				c.NoTrace = true
				cfgs = append(cfgs, c)
			}
		}
	}
	return cfgs
}
