package report

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/sim"
	"repro/internal/tournament"
)

// Tournament runs the cross-regime policy competition: every registered
// entrant (plus the NATIVE base) simulates the same fleets across the
// steady, diurnal, and sync-heavy regimes, and the per-regime fleet
// summaries are ranked into overall standings. Options.Procs picks each
// fleet's execution shape, as in Fleet; the table is byte-identical in
// every shape.
func Tournament(o Options) (*Table, error) {
	// Like the herd experiment, the tournament defaults far smaller than
	// the 10k fleet: every device runs once per regime and policy (base
	// included), and the diurnal column runs a 24 h horizon.
	devices := o.FleetDevices
	if devices <= 0 {
		devices = 96
	}
	o = o.withDefaults()

	spec := tournament.Spec{Seed: o.Seed, Devices: devices}
	topts := tournament.Options{Workers: o.Workers, Procs: o.Procs}
	if o.Progress != nil {
		last := time.Now()
		topts.Progress = func(regime, policy string, done, total int) {
			o.Progress(sim.Progress{Done: done, Total: total,
				Name: fmt.Sprintf("%s/%s", regime, policy), Wall: time.Since(last)})
			last = time.Now()
		}
	}
	sb, err := tournament.Run(context.Background(), spec, topts)
	if err != nil {
		return nil, err
	}

	var regimeNames []string
	for _, rr := range sb.Regimes {
		regimeNames = append(regimeNames, rr.Regime)
	}
	t := &Table{ID: "tournament",
		Title: fmt.Sprintf("Policy tournament: %d policies × %d regimes (%s), %d devices each, seed %d",
			len(sb.Standings), len(sb.Regimes), strings.Join(regimeNames, ", "), sb.Devices, sb.Seed)}
	t.Columns = []string{"overall", "policy", "mean rank"}
	for _, name := range regimeNames {
		t.Columns = append(t.Columns, name)
	}
	cellOf := func(regime, policy string) (tournament.Cell, bool) {
		for _, rr := range sb.Regimes {
			if rr.Regime != regime {
				continue
			}
			for _, c := range rr.Cells {
				if c.Policy == policy {
					return c, true
				}
			}
		}
		return tournament.Cell{}, false
	}
	for i, st := range sb.Standings {
		row := []string{fmt.Sprintf("%d", i+1), st.Policy, fmt.Sprintf("%.2f", st.MeanRank)}
		for _, name := range regimeNames {
			c, ok := cellOf(name, st.Policy)
			if !ok {
				return nil, fmt.Errorf("report: tournament scoreboard missing cell %s/%s", name, st.Policy)
			}
			row = append(row, fmt.Sprintf("#%d %.1fJ aoi %.0fs", c.Rank, c.EnergyMJ/1000, c.AoIMeanAge))
		}
		t.AddRow(row...)
	}
	t.AddNote("Within a regime policies rank by fewest perceptible-past-window deliveries, then lowest fleet-mean energy; overall order is the mean of per-regime ranks.")
	t.AddNote("Regime cells show the policy's rank, fleet-mean device energy, and fleet-mean Age-of-Information. All fleets run with zero wake latency so guarantee counts reflect policy behaviour, not hardware resume time.")
	return t, nil
}
