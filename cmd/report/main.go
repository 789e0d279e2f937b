// Command report regenerates every table and figure of the paper's
// evaluation (§4) and prints them next to the published values.
//
// Usage:
//
//	report [-experiment all|list|table1|table3|fig2|fig3|fig4|table4|bounds|
//	        ablations|drain|scaling|robustness|fleet|herd|tournament]
//	       [-trials 3] [-seed 1] [-hours 3] [-format text|markdown|csv]
//	       [-workers 0] [-devices 0] [-procs 0] [-progress]
//
// Each experiment is run -trials times with consecutive seeds (the paper
// averages three runs) and the mean is reported. Independent runs fan
// out over a worker pool (-workers, default GOMAXPROCS); -progress
// prints per-run completions to stderr. -devices sizes the fleet, herd
// and tournament populations (0 keeps 10,000, 200 and 96 per cell), and
// -procs P shards the same three experiments over P
// `report -shardworker` processes; the tables stay byte-identical.
// Either flag is an error with an experiment it does not apply to.
//
// Every flag is validated before any experiment starts; a bad value
// exits non-zero with a one-line error rather than burning minutes of
// simulation first.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	"repro/internal/report"
	"repro/internal/shardexec"
	"repro/internal/sim"
	"repro/internal/simclock"
)

// options holds every flag value. Keeping them on a struct (rather than
// package-level pointers) lets the tests parse and validate arbitrary
// argument lists without touching global state.
type options struct {
	experiment  string
	trials      int
	seed        int64
	hours       float64
	format      string
	workers     int
	devices     int
	procs       int
	progress    bool
	shardworker bool
}

// registerFlags binds the options to a FlagSet with their defaults.
func registerFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.experiment, "experiment", "all", "which experiment to regenerate (or 'list')")
	fs.IntVar(&o.trials, "trials", 3, "trials per configuration (averaged)")
	fs.Int64Var(&o.seed, "seed", 1, "base random seed")
	fs.Float64Var(&o.hours, "hours", 3, "connected-standby horizon in hours")
	fs.StringVar(&o.format, "format", "text", "output format: text, markdown, or csv")
	fs.IntVar(&o.workers, "workers", 0, "parallel simulation workers (0 = GOMAXPROCS)")
	fs.IntVar(&o.devices, "devices", 0, "fleet, herd and tournament population size (0 = 10000, 200 and 96 per cell)")
	fs.IntVar(&o.procs, "procs", 0, "run the fleet, herd and tournament experiments across N supervised worker processes (0 = in-process)")
	fs.BoolVar(&o.progress, "progress", false, "print per-run completions to stderr")
	fs.BoolVar(&o.shardworker, "shardworker", false, "internal: run as a shard worker (manifest on stdin, framed shard on stdout)")
	return o
}

// validate checks every flag value before anything runs: a bad value
// must be an immediate one-line failure, never a silently defaulted (or
// worse, post-experiment) surprise.
func (o *options) validate() error {
	switch o.experiment {
	case "all", "list":
	default:
		if _, ok := report.ByID(o.experiment); !ok {
			return fmt.Errorf("unknown experiment %q (try -experiment list)", o.experiment)
		}
	}
	if o.trials < 1 {
		return fmt.Errorf("-trials %d: want at least one trial", o.trials)
	}
	if _, err := simclock.Horizon(o.hours); err != nil {
		return fmt.Errorf("-hours: %w", err)
	}
	switch o.format {
	case "text", "markdown", "csv":
	default:
		return fmt.Errorf("unknown format %q (want text, markdown, or csv)", o.format)
	}
	if o.workers < 0 {
		return fmt.Errorf("-workers %d: want a non-negative worker count", o.workers)
	}
	if o.devices < 0 {
		return fmt.Errorf("-devices %d: want a non-negative population size", o.devices)
	}
	if o.procs < 0 {
		return fmt.Errorf("-procs %d: want a non-negative process count", o.procs)
	}
	population := slices.Contains([]string{"all", "fleet", "herd", "tournament"}, o.experiment)
	if o.devices > 0 && !population {
		return fmt.Errorf("-devices only applies to the fleet, herd and tournament experiments")
	}
	if o.procs > 0 && !population {
		return fmt.Errorf("-procs only applies to the fleet, herd and tournament experiments")
	}
	return nil
}

func main() {
	opts := registerFlags(flag.CommandLine)
	flag.Parse()
	if opts.shardworker {
		if flag.NFlag() > 1 {
			fail(fmt.Errorf("-shardworker is an internal mode and takes no other flags"))
		}
		os.Exit(shardexec.WorkerMain(context.Background(), os.Stdin, os.Stdout, os.Stderr))
	}
	if err := opts.validate(); err != nil {
		fail(err)
	}
	if err := opts.run(os.Stdout, os.Stderr); err != nil {
		fail(err)
	}
}

// fail prints the one-line error contract: no stack, no usage dump,
// non-zero exit.
func fail(err error) {
	fmt.Fprintf(os.Stderr, "report: %v\n", err)
	os.Exit(1)
}

// run executes the selected experiments and writes the tables to w;
// progress (when enabled) goes to errw. Every failure comes back as an
// error for main's one-line exit path.
func (o *options) run(w, errw io.Writer) error {
	horizon, err := simclock.Horizon(o.hours)
	if err != nil {
		return fmt.Errorf("-hours: %w", err)
	}
	ropts := report.Options{
		Trials:       o.trials,
		Seed:         o.seed,
		Duration:     horizon,
		Workers:      o.workers,
		FleetDevices: o.devices,
		Procs:        o.procs,
	}
	if o.progress {
		ropts.Progress = func(p sim.Progress) {
			fmt.Fprintf(errw, "  [%d/%d] %s (%.2fs)\n", p.Done, p.Total, p.Name, p.Wall.Seconds())
		}
	}

	if o.experiment == "list" {
		for _, e := range report.All() {
			fmt.Fprintf(w, "%-10s %s\n", e.ID, e.Paper)
		}
		return nil
	}

	selected := report.All()
	if o.experiment != "all" {
		e, _ := report.ByID(o.experiment) // validated up front
		selected = []report.Experiment{e}
	}

	for _, e := range selected {
		t, err := e.Build(ropts)
		if err != nil {
			return err
		}
		switch o.format {
		case "text":
			err = t.WriteText(w)
		case "markdown":
			err = t.WriteMarkdown(w)
		case "csv":
			err = t.WriteCSV(w)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
