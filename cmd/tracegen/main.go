// Command tracegen generates synthetic resident-app workloads beyond the
// paper's Table 3 and prints them as a spec table or runs them directly.
// It is the tool for studying how the policies scale with the number of
// resident apps — the paper's introduction expects "increasing the number
// of resident apps will accelerate battery depletion".
//
// Usage:
//
//	tracegen [-apps 30] [-seed 1] [-imperceptible 0.9] [-dynamic 0.5]
//	         [-minperiod 60] [-maxperiod 1800] [-run] [-policy SIMTY] [-hours 3]
//	tracegen -from trace.json [-o specs.json] [-run] [-policy SIMTY] [-hours 3]
//
// -from infers the workload from a recorded JSON trace (wakesim -json)
// instead of generating one; the generator knobs (-apps, -imperceptible,
// -dynamic, -minperiod, -maxperiod) conflict with it.
//
// Every flag value and combination is validated before anything runs; a
// bad combination exits non-zero with a one-line error.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"text/tabwriter"

	"repro/internal/apps"
	"repro/internal/hw"
	"repro/internal/imitate"
	"repro/internal/sim"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// options holds every flag value. Keeping them on a struct (rather than
// package-level pointers) lets the tests parse and validate arbitrary
// argument lists without touching global state.
type options struct {
	nApps         int
	seed          int64
	imperceptible float64
	dynamicFrac   float64
	minPeriod     int
	maxPeriod     int
	run           bool
	from          string
	out           string
	policy        string
	hours         float64
}

// registerFlags binds the options to a FlagSet with their defaults.
func registerFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.IntVar(&o.nApps, "apps", 30, "number of synthetic resident apps")
	fs.Int64Var(&o.seed, "seed", 1, "random seed")
	fs.Float64Var(&o.imperceptible, "imperceptible", 0.9, "fraction of imperceptible alarms")
	fs.Float64Var(&o.dynamicFrac, "dynamic", 0.5, "fraction of dynamic repeating alarms")
	fs.IntVar(&o.minPeriod, "minperiod", 60, "minimum repeating interval (s)")
	fs.IntVar(&o.maxPeriod, "maxperiod", 1800, "maximum repeating interval (s)")
	fs.BoolVar(&o.run, "run", false, "run the generated workload instead of only printing it")
	fs.StringVar(&o.from, "from", "", "infer the workload from a JSON trace (wakesim -json) instead of generating one")
	fs.StringVar(&o.out, "o", "", "write the workload as a JSON spec file (loadable with wakesim -spec)")
	fs.StringVar(&o.policy, "policy", "SIMTY", "policy used with -run")
	fs.Float64Var(&o.hours, "hours", 3, "horizon used with -run")
	return o
}

// generatorFlags are the knobs that shape a synthetic workload; they
// conflict with -from, which replaces generation with trace inference.
var generatorFlags = []string{"apps", "imperceptible", "dynamic", "minperiod", "maxperiod"}

// validate checks every flag value and combination before anything
// runs. explicit holds the flags the user actually set (flag.Visit), so
// a default value never false-positives a -from conflict.
func (o *options) validate(explicit map[string]bool) error {
	if o.from != "" {
		for _, f := range generatorFlags {
			if explicit[f] {
				return fmt.Errorf("-%s does not apply with -from: the trace determines the workload", f)
			}
		}
	} else {
		if o.nApps <= 0 {
			return fmt.Errorf("-apps %d: want a positive app count", o.nApps)
		}
		if o.minPeriod <= 0 {
			return fmt.Errorf("-minperiod %d: want a positive interval in seconds", o.minPeriod)
		}
		if o.maxPeriod < o.minPeriod {
			return fmt.Errorf("-maxperiod %d below -minperiod %d", o.maxPeriod, o.minPeriod)
		}
		if !(o.imperceptible >= 0 && o.imperceptible <= 1) { // !(…) also catches NaN
			return fmt.Errorf("-imperceptible %v: want a fraction in [0,1]", o.imperceptible)
		}
		if !(o.dynamicFrac >= 0 && o.dynamicFrac <= 1) {
			return fmt.Errorf("-dynamic %v: want a fraction in [0,1]", o.dynamicFrac)
		}
	}
	if _, err := simclock.Horizon(o.hours); err != nil {
		return fmt.Errorf("-hours: %w", err)
	}
	if err := sim.CheckPolicy(o.policy); err != nil {
		return err
	}
	return nil
}

// generate builds the synthetic app specs from the validated options.
func (o *options) generate(rng *rand.Rand) []apps.Spec {
	hwChoices := []struct {
		set hw.Set
		dur simclock.Duration
	}{
		{hw.MakeSet(hw.WiFi), 2 * simclock.Second},
		{hw.MakeSet(hw.WPS), 1 * simclock.Second},
		{hw.MakeSet(hw.Accelerometer), 2 * simclock.Second},
		{hw.MakeSet(hw.WiFi, hw.WPS), 2 * simclock.Second},
		{hw.MakeSet(hw.Cellular), 2 * simclock.Second},
	}
	perceptible := struct {
		set hw.Set
		dur simclock.Duration
	}{hw.MakeSet(hw.Speaker, hw.Vibrator), simclock.Second}

	specs := make([]apps.Spec, 0, o.nApps)
	for i := 0; i < o.nApps; i++ {
		period := simclock.Duration(o.minPeriod+rng.Intn(o.maxPeriod-o.minPeriod+1)) * simclock.Second
		alpha := 0.0
		if rng.Float64() < 0.5 {
			alpha = 0.75
		}
		choice := perceptible
		if rng.Float64() < o.imperceptible {
			choice = hwChoices[rng.Intn(len(hwChoices))]
		}
		specs = append(specs, apps.Spec{
			Name:    fmt.Sprintf("synth.%02d", i),
			Period:  period,
			Alpha:   alpha,
			Dynamic: rng.Float64() < o.dynamicFrac,
			HW:      choice.set,
			TaskDur: choice.dur,
		})
	}
	return specs
}

// loadWorkload resolves -from / the generator knobs into specs.
func (o *options) loadWorkload(w io.Writer) ([]apps.Spec, error) {
	if o.from == "" {
		return o.generate(rand.New(rand.NewSource(o.seed))), nil
	}
	f, err := os.Open(o.from)
	if err != nil {
		return nil, err
	}
	events, err := trace.ReadJSON(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	specs := imitate.Infer(events)
	fmt.Fprintf(w, "inferred %d imitated apps from %s\n", len(specs), o.from)
	return specs, nil
}

// execute prints the spec table and performs the -o / -run actions.
func (o *options) execute(stdout io.Writer) error {
	specs, err := o.loadWorkload(stdout)
	if err != nil {
		return err
	}

	w := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "app\tReIn(s)\tα\tS/D\thardware\ttask(s)")
	for _, s := range specs {
		sd := "S"
		if s.Dynamic {
			sd = "D"
		}
		fmt.Fprintf(w, "%s\t%d\t%.2f\t%s\t%s\t%.1f\n",
			s.Name, int64(s.Period/simclock.Second), s.Alpha, sd, s.HW, s.TaskDur.Seconds())
	}
	w.Flush()

	if o.out != "" {
		f, err := os.Create(o.out)
		if err != nil {
			return err
		}
		if err := apps.WriteSpecs(f, specs); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "workload written to %s\n", o.out)
	}

	if !o.run {
		return nil
	}
	horizon, err := simclock.Horizon(o.hours)
	if err != nil {
		return fmt.Errorf("-hours: %w", err)
	}
	cmp, err := sim.Compare(sim.Config{
		Workload:     specs,
		SystemAlarms: true,
		Duration:     horizon,
		Seed:         o.seed,
	}, "NATIVE", o.policy)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\nNATIVE: %d wakeups, %.0f J, %.1f h standby\n",
		cmp.Base.FinalWakeups, cmp.Base.Energy.TotalMJ()/1000, cmp.Base.StandbyHours)
	fmt.Fprintf(stdout, "%s: %d wakeups, %.0f J, %.1f h standby\n", cmp.Test.PolicyName,
		cmp.Test.FinalWakeups, cmp.Test.Energy.TotalMJ()/1000, cmp.Test.StandbyHours)
	fmt.Fprintf(stdout, "total savings %.1f%%, standby extension %.1f%%\n",
		cmp.TotalSavings()*100, cmp.StandbyExtension()*100)
	return nil
}

func main() {
	opts := registerFlags(flag.CommandLine)
	flag.Parse()
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	if err := opts.validate(explicit); err != nil {
		fail(err)
	}
	if err := opts.execute(os.Stdout); err != nil {
		fail(err)
	}
}

// fail prints the one-line error contract: no stack, no usage dump,
// non-zero exit.
func fail(err error) {
	fmt.Fprintln(os.Stderr, "tracegen:", err)
	os.Exit(1)
}
