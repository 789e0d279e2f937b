package report

import (
	"context"
	"fmt"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/simclock"
	"repro/internal/stats"
)

// Options control how experiments run.
type Options struct {
	// Trials per configuration; the paper averages 3. Zero means 3.
	Trials int
	// Seed is the base seed; trial i uses Seed+i.
	Seed int64
	// Duration is the standby horizon; zero means the paper's 3 h.
	Duration simclock.Duration
	// Workers bounds the parallel runner's pool; ≤ 0 means GOMAXPROCS.
	Workers int
	// FleetDevices is the population size for the fleet, herd and
	// tournament experiments; zero keeps 10,000, 200 and 96 per cell.
	FleetDevices int
	// Progress, when non-nil, receives one callback per finished run
	// (forwarded to the parallel runner).
	Progress func(sim.Progress)
	// Procs, when > 0, executes the fleet, herd and tournament
	// experiments across supervised worker OS processes
	// (internal/shardexec); the tables are byte-identical.
	Procs int
}

// runOpts forwards the pool tuning to the parallel runner.
func (o Options) runOpts() sim.RunAllOptions {
	return sim.RunAllOptions{Workers: o.Workers, Progress: o.Progress}
}

func (o Options) withDefaults() Options {
	if o.Trials <= 0 {
		o.Trials = 3
	}
	if o.Duration <= 0 {
		o.Duration = sim.DefaultDuration
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.FleetDevices <= 0 {
		o.FleetDevices = 10_000
	}
	return o
}

func (o Options) config(workload []apps.Spec, policy string) sim.Config {
	return sim.Config{
		Workload:     workload,
		Policy:       policy,
		SystemAlarms: true,
		OneShots:     6,
		Seed:         o.Seed,
		Duration:     o.Duration,
	}
}

// Experiment is one regenerable paper artifact.
type Experiment struct {
	// ID is the short identifier used on the command line.
	ID string
	// Paper describes what the paper reports for this artifact.
	Paper string
	// Build runs the experiment and returns its table.
	Build func(Options) (*Table, error)
}

// All returns every experiment in presentation order.
func All() []Experiment {
	return []Experiment{
		{"table1", "applicability/preferability matrix", Table1},
		{"table3", "18-app catalog", Table3},
		{"fig2", "motivating example: 7,520 mJ vs 4,050 mJ", Figure2},
		{"fig3", "energy: savings 20% light / 25% heavy, >33% of awake", Figure3},
		{"fig4", "delay: perceptible 0; imperceptible 17.9% / 13.9% SIMTY, 0.4–0.6% NATIVE", Figure4},
		{"table4", "wakeup breakdown per hardware", Table4},
		{"bounds", "SIMTY wakeups approach horizon/min-static-ReIn", Bounds},
		{"ablations", "hw-similarity levels, β sweep, latency, realignment", Ablations},
		{"drain", "measured full-battery standby time per policy (extension 1/4–1/3)", Drain},
		{"scaling", "standby vs number of resident apps (§1's motivation)", Scaling},
		{"robustness", "savings under injected wakelock leaks and alarm storms", Robustness},
		{"fleet", "savings distribution across 10k heterogeneous devices (streaming aggregates)", Fleet},
		{"herd", "thundering herd: backend peak load and overload, NATIVE vs SIMTY vs SIMTY-J", Herd},
		{"tournament", "policy tournament: cross-regime ranking of every registered policy", Tournament},
	}
}

// Scaling quantifies the introduction's motivation — "increasing the
// number of resident apps will accelerate battery depletion" — by
// replicating the light workload's app population and comparing
// projected standby under NATIVE and SIMTY.
func Scaling(o Options) (*Table, error) {
	o = o.withDefaults()
	t := &Table{ID: "scaling",
		Title:   "Standby vs resident-app count (paper §1: more resident apps accelerate depletion)",
		Columns: []string{"apps", "NATIVE standby (h)", "SIMTY standby (h)", "SIMTY advantage"}}
	for _, copies := range []int{1, 2, 3, 4} {
		var specs []apps.Spec
		for c := 0; c < copies; c++ {
			for _, s := range apps.LightWorkload() {
				s2 := s
				if c > 0 {
					s2.Name = fmt.Sprintf("%s#%d", s.Name, c)
				}
				specs = append(specs, s2)
			}
		}
		nat, err := runTrials(o, o.config(specs, "NATIVE"))
		if err != nil {
			return nil, err
		}
		sty, err := runTrials(o, o.config(specs, "SIMTY"))
		if err != nil {
			return nil, err
		}
		n := mean(nat, func(r *sim.Result) float64 { return r.StandbyHours })
		s := mean(sty, func(r *sim.Result) float64 { return r.StandbyHours })
		t.AddRow(fmt.Sprintf("%d", len(specs)), fmt.Sprintf("%.1f", n),
			fmt.Sprintf("%.1f", s), fmt.Sprintf("+%.0f%%", (s/n-1)*100))
	}
	t.AddNote("A denser alarm population drains faster under both policies, but gives SIMTY more similar alarms to align.")
	return t, nil
}

// Drain measures time-to-empty from a full battery under each policy —
// the user-facing form of the paper's headline claim.
func Drain(o Options) (*Table, error) {
	o = o.withDefaults()
	t := &Table{ID: "drain",
		Title:   "Standby time measured to battery exhaustion (paper: SIMTY extends NATIVE's by one-fourth to one-third)",
		Columns: []string{"workload", "policy", "standby (h)", "vs NATIVE", "wakeups"}}
	// All six multi-hundred-hour discharges are independent; fan them
	// over the pool and format in input order afterwards.
	policies := []string{"NATIVE", "NOALIGN", "SIMTY"}
	var cfgs []sim.Config
	for _, wl := range workloads() {
		for _, p := range policies {
			c := o.config(wl.specs, p)
			c.Name = wl.name
			cfgs = append(cfgs, c)
		}
	}
	drains, err := sim.RunToEmptyAll(context.Background(), cfgs, o.runOpts())
	if err != nil {
		return nil, err
	}
	for wi, wl := range workloads() {
		base := 0.0
		for pi, p := range policies {
			r := drains[wi*len(policies)+pi]
			rel := "—"
			if p == "NATIVE" {
				base = r.StandbyHours
			} else if base > 0 {
				rel = fmt.Sprintf("%+.0f%%", (r.StandbyHours/base-1)*100)
			}
			t.AddRow(wl.name, p, fmt.Sprintf("%.1f", r.StandbyHours), rel,
				fmt.Sprintf("%d", r.Wakeups))
		}
	}
	t.AddNote("NOALIGN rows show the cost of no alignment at all; percentages are relative to NATIVE.")
	return t, nil
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

func runTrials(o Options, c sim.Config) ([]*sim.Result, error) {
	return sim.RunTrialsContext(context.Background(), c, o.Trials, o.runOpts())
}

func mean(rs []*sim.Result, f func(*sim.Result) float64) float64 {
	return stats.Mean(series(rs, f))
}

func series(rs []*sim.Result, f func(*sim.Result) float64) []float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = f(r)
	}
	return xs
}

type workload struct {
	name  string
	specs []apps.Spec
}

func workloads() []workload {
	return []workload{{"light", apps.LightWorkload()}, {"heavy", apps.HeavyWorkload()}}
}

// Table1 renders the preferability matrix (definitionally exact).
func Table1(Options) (*Table, error) {
	t := &Table{ID: "table1",
		Title:   "Table 1: applicability and preferability of a queue entry",
		Columns: []string{"time\\hardware", "high", "medium", "low"}}
	for _, ts := range []core.Level{core.High, core.Medium, core.Low} {
		row := []string{ts.String()}
		for _, hs := range []core.Level{core.High, core.Medium, core.Low} {
			if r := core.Rank(hs, ts); r == core.Inapplicable {
				row = append(row, "∞")
			} else {
				row = append(row, fmt.Sprintf("%d", r))
			}
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Table3 renders the app catalog.
func Table3(Options) (*Table, error) {
	t := &Table{ID: "table3",
		Title:   "Table 3: mobile apps used in the experiments",
		Columns: []string{"H", "L", "app", "ReIn(s)", "α", "S/D", "hardware"}}
	for i, s := range apps.Table3() {
		light := " "
		if i < 12 {
			light = "•"
		}
		sd := "S"
		if s.Dynamic {
			sd = "D"
		}
		name := s.Name
		if s.Imitated {
			name += "*"
		}
		t.AddRow("•", light, name, fmt.Sprintf("%d", int64(s.Period/simclock.Second)),
			fmt.Sprintf("%.2f", s.Alpha), sd, s.HW.String())
	}
	return t, nil
}

// Figure2 regenerates the motivating example.
func Figure2(Options) (*Table, error) {
	t := &Table{ID: "fig2",
		Title:   "Figure 2: motivating example (paper: NATIVE 7,520 mJ; SIMTY 4,050 mJ)",
		Columns: []string{"policy", "alarm energy (mJ)", "wakeups", "batches"}}
	for _, p := range []string{"NATIVE", "SIMTY"} {
		r, err := sim.Motivating(p)
		if err != nil {
			return nil, err
		}
		t.AddRow(r.PolicyName, fmt.Sprintf("%.0f", r.AlarmsMJ),
			fmt.Sprintf("%d", r.Wakeups), fmt.Sprintf("%v", r.Batches))
	}
	return t, nil
}

// Figure3 regenerates the energy comparison.
func Figure3(o Options) (*Table, error) {
	o = o.withDefaults()
	t := &Table{ID: "fig3",
		Title:   "Figure 3: energy under NATIVE and SIMTY (paper: savings 20% light, 25% heavy; >33% of awake energy)",
		Columns: []string{"workload", "policy", "sleep (J)", "awake (J)", "total (J)", "standby (h)"}}
	type agg struct{ total, awake, standby float64 }
	res := map[string]agg{}
	for _, wl := range workloads() {
		var savingsSeries []float64
		var natTotals, simTotals []float64
		for _, p := range []string{"NATIVE", "SIMTY"} {
			rs, err := runTrials(o, o.config(wl.specs, p))
			if err != nil {
				return nil, err
			}
			totals := series(rs, func(r *sim.Result) float64 { return r.Energy.TotalMJ() })
			if p == "NATIVE" {
				natTotals = totals
			} else {
				simTotals = totals
			}
			a := agg{
				total:   stats.Mean(totals),
				awake:   mean(rs, func(r *sim.Result) float64 { return r.Energy.AwakeMJ() }),
				standby: mean(rs, func(r *sim.Result) float64 { return r.StandbyHours }),
			}
			res[wl.name+p] = a
			t.AddRow(wl.name, p, fmt.Sprintf("%.0f", (a.total-a.awake)/1000),
				fmt.Sprintf("%.0f", a.awake/1000), fmt.Sprintf("%.0f", a.total/1000),
				fmt.Sprintf("%.1f", a.standby))
		}
		for i := range natTotals {
			if i < len(simTotals) && natTotals[i] > 0 {
				savingsSeries = append(savingsSeries, (1-simTotals[i]/natTotals[i])*100)
			}
		}
		res[wl.name+"ci"] = agg{total: stats.CI95(savingsSeries)}
	}
	for _, wl := range workloads() {
		n, s := res[wl.name+"NATIVE"], res[wl.name+"SIMTY"]
		t.AddNote("%s: total savings %.1f%% ± %.1f (95%% CI over %d trials), awake savings %.1f%%, standby extension %.1f%%",
			wl.name, (1-s.total/n.total)*100, res[wl.name+"ci"].total, o.Trials,
			(1-s.awake/n.awake)*100, (s.standby/n.standby-1)*100)
	}
	return t, nil
}

// Figure4 regenerates the delay comparison.
func Figure4(o Options) (*Table, error) {
	o = o.withDefaults()
	t := &Table{ID: "fig4",
		Title:   "Figure 4: normalized delivery delay (paper: perceptible 0/0; imperceptible NATIVE 0.4–0.6%, SIMTY 17.9% light / 13.9% heavy)",
		Columns: []string{"workload", "policy", "perceptible (%)", "imperceptible (%)"}}
	for _, wl := range workloads() {
		for _, p := range []string{"NATIVE", "SIMTY"} {
			rs, err := runTrials(o, o.config(wl.specs, p))
			if err != nil {
				return nil, err
			}
			t.AddRow(wl.name, p,
				fmt.Sprintf("%.3f", mean(rs, func(r *sim.Result) float64 { return r.Delays.PerceptibleMean })*100),
				fmt.Sprintf("%.2f", mean(rs, func(r *sim.Result) float64 { return r.Delays.ImperceptibleMean })*100))
		}
	}
	return t, nil
}

// Table4 regenerates the wakeup breakdown.
func Table4(o Options) (*Table, error) {
	o = o.withDefaults()
	t := &Table{ID: "table4",
		Title:   "Table 4: wakeup breakdown, wakeups/expected (paper light CPU 733/983→193/830; heavy CPU 981/1,726→259/1,370, Wi-Fi 465/565→158/433, WPS 125/132→64/131, accel 227/300→186/300, spk&vib 18/18→12/18)",
		Columns: []string{"workload", "policy", "CPU", "Spk&Vib", "Wi-Fi", "WPS", "Accelerometer", "mean batch"}}
	for _, wl := range workloads() {
		for _, p := range []string{"NATIVE", "SIMTY"} {
			rs, err := runTrials(o, o.config(wl.specs, p))
			if err != nil {
				return nil, err
			}
			row := func(f func(*sim.Result) metrics.Row) string {
				return fmt.Sprintf("%.0f/%.0f",
					mean(rs, func(r *sim.Result) float64 { return float64(f(r).Wakeups) }),
					mean(rs, func(r *sim.Result) float64 { return float64(f(r).Expected) }))
			}
			batch := mean(rs, func(r *sim.Result) float64 { return metrics.Batches(r.Records).MeanSize })
			t.AddRow(wl.name, p,
				row(func(r *sim.Result) metrics.Row { return r.Wakeups.CPU }),
				row(func(r *sim.Result) metrics.Row { return r.SpkVib }),
				row(func(r *sim.Result) metrics.Row { return r.Wakeups.Component[hw.WiFi] }),
				row(func(r *sim.Result) metrics.Row { return r.Wakeups.Component[hw.WPS] }),
				row(func(r *sim.Result) metrics.Row { return r.Wakeups.Component[hw.Accelerometer] }),
				fmt.Sprintf("%.2f", batch))
		}
	}
	return t, nil
}

// Bounds regenerates the §4.2 least-required-wakeups comparison.
func Bounds(o Options) (*Table, error) {
	o = o.withDefaults()
	t := &Table{ID: "bounds",
		Title:   "§4.2: SIMTY wakeups vs least-required (horizon / min static ReIn)",
		Columns: []string{"hardware", "SIMTY wakeups", "least required"}}
	rs, err := runTrials(o, o.config(apps.HeavyWorkload(), "SIMTY"))
	if err != nil {
		return nil, err
	}
	lb := metrics.LeastWakeups(o.Duration, sim.StaticPeriodsByComponent(apps.HeavyWorkload()))
	for _, c := range []hw.Component{hw.WiFi, hw.WPS, hw.Accelerometer} {
		got := mean(rs, func(r *sim.Result) float64 { return float64(r.Wakeups.Component[c].Wakeups) })
		t.AddRow(c.String(), fmt.Sprintf("%.0f", got), fmt.Sprintf("%d", lb[c]))
	}
	return t, nil
}

// Ablations regenerates the design-choice studies.
func Ablations(o Options) (*Table, error) {
	o = o.withDefaults()
	t := &Table{ID: "ablations",
		Title:   "Ablations: similarity granularity, duration extension, β, wake latency, fixed-interval remedy",
		Columns: []string{"variant", "workload", "total (J)", "wakeups", "imperc delay (%)", "perc delay (%)"}}
	add := func(name, wl string, c sim.Config) error {
		rs, err := runTrials(o, c)
		if err != nil {
			return err
		}
		t.AddRow(name, wl,
			fmt.Sprintf("%.0f", mean(rs, func(r *sim.Result) float64 { return r.Energy.TotalMJ() })/1000),
			fmt.Sprintf("%.0f", mean(rs, func(r *sim.Result) float64 { return float64(r.FinalWakeups) })),
			fmt.Sprintf("%.2f", mean(rs, func(r *sim.Result) float64 { return r.Delays.ImperceptibleMean })*100),
			fmt.Sprintf("%.3f", mean(rs, func(r *sim.Result) float64 { return r.Delays.PerceptibleMean })*100))
		return nil
	}
	for _, p := range []string{"SIMTY-hw2", "SIMTY", "SIMTY-hw4", "SIMTY-DUR", "INTERVAL", "DOZE"} {
		if err := add(p, "heavy", o.config(apps.HeavyWorkload(), p)); err != nil {
			return nil, err
		}
	}
	for _, beta := range []float64{0.75, 0.85, 0.96} {
		c := o.config(apps.LightWorkload(), "SIMTY")
		c.Beta = beta
		if err := add(fmt.Sprintf("SIMTY β=%.2f", beta), "light", c); err != nil {
			return nil, err
		}
	}
	for _, zero := range []bool{false, true} {
		c := o.config(apps.LightWorkload(), "NATIVE")
		c.ZeroWakeLatency = zero
		name := "NATIVE (wake latency)"
		if zero {
			name = "NATIVE (zero latency)"
		}
		if err := add(name, "light", c); err != nil {
			return nil, err
		}
	}
	for _, off := range []bool{false, true} {
		c := o.config(apps.LightWorkload(), "NATIVE")
		c.DisableRealign = off
		name := "NATIVE (realign on)"
		if off {
			name = "NATIVE (realign off)"
		}
		if err := add(name, "light", c); err != nil {
			return nil, err
		}
	}
	return t, nil
}
