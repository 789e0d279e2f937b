// Command wakesim runs one connected-standby simulation and prints its
// summary, optionally exporting the full event trace.
//
// Usage:
//
//	wakesim [-policy SIMTY] [-workload light|heavy|table3] [-spec file.json]
//	        [-hours 3] [-beta 0.96] [-seed 1] [-system] [-oneshots 6]
//	        [-pushes 0] [-screens 0] [-backend] [-shed 0.05] [-alignedphases]
//	        [-leak apps] [-leaknever apps] [-storm app:period_s[:count]]
//	        [-trace out.csv] [-json out.json] [-timeline MIN] [-anomaly]
//	        [-toempty] [-v]
//	wakesim -fleet N [-fleetspec file.json] [-workers 0] [-json agg.json]
//	        [-policy SIMTY] [-hours 3] [-beta 0.96] [-seed 0]
//	        [-procs P [-checkpoint run.ckpt [-resume]]]
//	wakesim -shardworker
//
// Fleet mode (-fleet and/or -fleetspec) simulates a population of
// heterogeneous devices instead of one: -fleetspec loads a fleet.Spec
// JSON describing the sampling distributions (-fleet overrides its
// device count), every device runs under the spec's base and test
// policies on a worker pool, and the results stream into memory-bounded
// aggregates. -json then writes the deterministic JSON aggregate, which
// is byte-identical across -workers values for a fixed spec. The
// single-run flags that name one concrete device or export one trace
// (-workload, -spec, -toempty, -trace, -timeline, -anomaly, the fault
// flags, -pushes, -screens, -oneshots) conflict with fleet mode.
//
// -procs P shards the fleet across P supervised worker OS processes
// (see internal/shardexec): the summary stays byte-identical, crashed
// or hung workers are retried and eventually quarantined, and
// -checkpoint persists completed shards so an interrupted run restarted
// with -resume re-executes only the missing ones. -checkpoint requires
// -procs, and -resume requires -checkpoint. -shardworker is the child
// half of that protocol — it reads one shard manifest from stdin,
// writes one framed shard aggregate to stdout, and accepts no other
// flags; it is an internal mode the supervisor invokes, not a
// user-facing entry point.
//
// The trace-export flags (-trace, -json, -timeline, -anomaly) work in
// both fixed-horizon and -toempty mode; a run-to-empty trace covers the
// entire discharge. A run that neither exports a trace nor prints -v's
// per-app counts uses the no-trace fast mode: it retains no records or
// trace, and every printed number is the same either way.
//
// -backend co-simulates the push/sync backend (see internal/backend):
// every wake pays a reconnect latency, Wi-Fi deliveries become backend
// requests, -shed sets the client-perceived shed probability that drives
// the retry pipeline, and the summary gains the device's request
// counters plus a server-queue replay of its arrival stream.
// -alignedphases installs every app at phase offset = its period — the
// synchronized update-wave scenario the herd experiment studies. In
// fleet mode both knobs live in the fleet spec JSON instead.
//
// The fault flags inject deterministic misbehaviour (see internal/fault):
// -leak holds the named apps' wakelocks past release, -leaknever never
// releases them, and -storm adds a runaway app re-registering a short
// exact alarm. Combine with -anomaly to watch the detector catch them.
//
// Every flag combination is validated before the simulation starts; a
// bad combination exits non-zero with a one-line error.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"

	"repro/internal/anomaly"
	"repro/internal/apps"
	"repro/internal/backend"
	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/shardexec"
	"repro/internal/sim"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// options holds every flag value. Keeping them on a struct (rather than
// package-level pointers) lets the tests parse and validate arbitrary
// argument lists without touching global state.
type options struct {
	// explicitSet records which flags the user actually passed (captured
	// by validate); fleet mode applies -seed/-hours/-beta/-policy on top
	// of the spec file only when they were set explicitly.
	explicitSet map[string]bool

	policy      string
	workload    string
	specFile    string
	hours       float64
	beta        float64
	seed        int64
	system      bool
	oneshots    int
	pushes      float64
	screens     float64
	leak        string
	leakNever   string
	storm       string
	traceCSV    string
	traceJSON   string
	detect      bool
	toEmpty     bool
	timeline    int
	verbose     bool
	fleet       int
	fleetSpec   string
	workers     int
	backend     bool
	shed        float64
	aligned     bool
	procs       int
	checkpoint  string
	resume      bool
	shardworker bool
}

// registerFlags binds the options to a FlagSet with their defaults.
func registerFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.policy, "policy", "SIMTY", "alignment policy ("+strings.Join(sim.PolicyNames(), ", ")+")")
	fs.StringVar(&o.workload, "workload", "heavy", "workload: light, heavy, or table3")
	fs.StringVar(&o.specFile, "spec", "", "load the workload from a JSON spec file instead (see cmd/tracegen -o)")
	fs.Float64Var(&o.hours, "hours", 3, "standby horizon in hours")
	fs.Float64Var(&o.beta, "beta", sim.DefaultBeta, "grace factor β")
	fs.Int64Var(&o.seed, "seed", 1, "random seed")
	fs.BoolVar(&o.system, "system", true, "install background system alarms")
	fs.IntVar(&o.oneshots, "oneshots", 6, "number of sporadic one-shot alarms")
	fs.Float64Var(&o.pushes, "pushes", 0, "external (GCM-style) wakeups per hour, Poisson arrivals")
	fs.Float64Var(&o.screens, "screens", 0, "screen-on sessions per hour, Poisson arrivals")
	fs.StringVar(&o.leak, "leak", "", "comma-separated apps whose wakelock leaks (held 5 min past release)")
	fs.StringVar(&o.leakNever, "leaknever", "", "comma-separated apps whose wakelock is never released")
	fs.StringVar(&o.storm, "storm", "", "alarm storm spec app:period_s[:count], e.g. rogue:5")
	fs.StringVar(&o.traceCSV, "trace", "", "write the event trace as CSV to this file")
	fs.StringVar(&o.traceJSON, "json", "", "write the event trace (or, in fleet mode, the aggregate) as JSON to this file")
	fs.BoolVar(&o.detect, "anomaly", false, "scan the run for no-sleep energy bugs")
	fs.BoolVar(&o.toEmpty, "toempty", false, "simulate from full battery until empty (measures standby time directly)")
	fs.IntVar(&o.timeline, "timeline", 0, "render the first N minutes as an ASCII timeline")
	fs.BoolVar(&o.verbose, "v", false, "print per-app delivery counts")
	fs.IntVar(&o.fleet, "fleet", 0, "simulate a fleet of N heterogeneous devices instead of one run")
	fs.StringVar(&o.fleetSpec, "fleetspec", "", "load the fleet population spec from a JSON file (see internal/fleet)")
	fs.IntVar(&o.workers, "workers", 0, "fleet worker pool size (0 = GOMAXPROCS)")
	fs.BoolVar(&o.backend, "backend", false, "co-simulate the push/sync backend (reconnect latency, retry pipeline, server queue)")
	fs.Float64Var(&o.shed, "shed", 0, "backend client-perceived shed rate in [0, 1) (requires -backend)")
	fs.BoolVar(&o.aligned, "alignedphases", false, "install every app at phase offset = its period (the update-wave herd scenario)")
	fs.IntVar(&o.procs, "procs", 0, "shard a fleet run across N supervised worker processes (0 = in-process)")
	fs.StringVar(&o.checkpoint, "checkpoint", "", "persist completed shards to this file (requires -procs)")
	fs.BoolVar(&o.resume, "resume", false, "resume from an existing -checkpoint file, re-running only missing shards")
	fs.BoolVar(&o.shardworker, "shardworker", false, "internal: run as a shard worker (manifest on stdin, framed shard on stdout)")
	return o
}

// fleetMode reports whether the options describe a fleet run.
func (o *options) fleetMode() bool { return o.fleet > 0 || o.fleetSpec != "" }

// validate checks every flag value and combination before anything
// runs. explicit holds the flags the user actually set (flag.Visit), so
// conflicts between a default and an explicit flag don't false-positive.
func (o *options) validate(explicit map[string]bool) error {
	o.explicitSet = explicit
	if o.shardworker {
		// The worker protocol is manifest-on-stdin only; any other
		// explicit flag is a misuse of the internal mode.
		for f := range explicit {
			if f != "shardworker" {
				return fmt.Errorf("-shardworker is an internal mode and takes no other flags (got -%s)", f)
			}
		}
		return nil
	}
	if err := sim.CheckPolicy(o.policy); err != nil {
		return err
	}
	if o.fleet < 0 {
		return fmt.Errorf("-fleet %d: want a positive device count", o.fleet)
	}
	if o.workers < 0 {
		return fmt.Errorf("-workers %d: want a non-negative worker count", o.workers)
	}
	if o.procs < 0 {
		return fmt.Errorf("-procs %d: want a non-negative process count", o.procs)
	}
	if o.checkpoint != "" && o.procs <= 0 {
		return fmt.Errorf("-checkpoint requires -procs: only the multi-process supervisor writes checkpoints")
	}
	if o.resume && o.checkpoint == "" {
		return fmt.Errorf("-resume requires -checkpoint: there is nothing to resume from")
	}
	if o.fleetMode() {
		// Fleet mode samples its own per-device workloads, rates, and
		// faults; flags that configure one concrete run conflict with it.
		for _, f := range []string{"workload", "spec", "toempty", "trace", "timeline",
			"anomaly", "leak", "leaknever", "storm", "pushes", "screens", "oneshots", "system", "v",
			"backend", "shed", "alignedphases"} {
			if explicit[f] {
				return fmt.Errorf("-%s does not apply to a fleet run: the fleet spec describes the population", f)
			}
		}
	} else if explicit["workers"] {
		return fmt.Errorf("-workers only applies to fleet mode (-fleet / -fleetspec)")
	} else if explicit["procs"] {
		return fmt.Errorf("-procs only applies to fleet mode (-fleet / -fleetspec)")
	}
	if o.specFile != "" && explicit["workload"] {
		return fmt.Errorf("-spec and -workload are mutually exclusive: the spec file is the workload")
	}
	if o.specFile == "" {
		if _, err := apps.Workload(o.workload); err != nil {
			return err
		}
	}
	if _, err := simclock.Horizon(o.hours); err != nil {
		return fmt.Errorf("-hours: %w", err)
	}
	if !(o.beta > 0 && o.beta < 1) {
		return fmt.Errorf("-beta %v: the grace factor must lie in (0,1)", o.beta)
	}
	if o.oneshots < 0 {
		return fmt.Errorf("-oneshots %d: want a non-negative count", o.oneshots)
	}
	if !(o.pushes >= 0) || math.IsInf(o.pushes, 0) {
		return fmt.Errorf("-pushes %v: want a non-negative finite rate", o.pushes)
	}
	if !(o.screens >= 0) || math.IsInf(o.screens, 0) {
		return fmt.Errorf("-screens %v: want a non-negative finite rate", o.screens)
	}
	if o.timeline < 0 {
		return fmt.Errorf("-timeline %d: want a non-negative minute count", o.timeline)
	}
	if explicit["shed"] && !o.backend {
		return fmt.Errorf("-shed requires -backend: the shed rate parameterizes the backend model")
	}
	if !(o.shed >= 0 && o.shed < 1) {
		return fmt.Errorf("-shed %v: the shed rate must lie in [0, 1)", o.shed)
	}
	if _, err := o.faultPlan(); err != nil {
		return err
	}
	return nil
}

// faultPlan translates the fault flags into an injection plan, or nil
// when none are set. App-name validation against the workload happens
// in sim.Config validation, where the installed set is known.
func (o *options) faultPlan() (*fault.Plan, error) {
	var p fault.Plan
	for _, app := range splitApps(o.leak) {
		p.Leaks = append(p.Leaks, fault.Leak{App: app, Mode: fault.LeakLate})
	}
	for _, app := range splitApps(o.leakNever) {
		p.Leaks = append(p.Leaks, fault.Leak{App: app, Mode: fault.LeakNever})
	}
	if o.storm != "" {
		s, err := parseStorm(o.storm)
		if err != nil {
			return nil, err
		}
		p.Storms = append(p.Storms, s)
	}
	if p.Empty() {
		return nil, nil
	}
	return &p, nil
}

func splitApps(list string) []string {
	var out []string
	for _, a := range strings.Split(list, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// parseStorm reads "app:period_s[:count]".
func parseStorm(spec string) (fault.Storm, error) {
	parts := strings.Split(spec, ":")
	if len(parts) < 2 || len(parts) > 3 || parts[0] == "" {
		return fault.Storm{}, fmt.Errorf("-storm %q: want app:period_s[:count]", spec)
	}
	period, err := strconv.ParseFloat(parts[1], 64)
	if err != nil || !(period > 0) || math.IsInf(period, 0) || period > 1e9 {
		return fault.Storm{}, fmt.Errorf("-storm %q: want a positive period in seconds", spec)
	}
	s := fault.Storm{App: parts[0], Period: simclock.Duration(period * float64(simclock.Second))}
	if s.Period <= 0 {
		return fault.Storm{}, fmt.Errorf("-storm %q: period below the 1 ms clock granularity", spec)
	}
	if len(parts) == 3 {
		count, err := strconv.Atoi(parts[2])
		if err != nil || count < 0 {
			return fault.Storm{}, fmt.Errorf("-storm %q: want a non-negative delivery count", spec)
		}
		s.Count = count
	}
	return s, nil
}

// loadWorkload resolves -spec / -workload into specs and a display name.
func (o *options) loadWorkload() ([]apps.Spec, string, error) {
	if o.specFile != "" {
		f, err := os.Open(o.specFile)
		if err != nil {
			return nil, "", err
		}
		defer f.Close()
		specs, err := apps.ReadSpecs(f)
		if err != nil {
			return nil, "", err
		}
		return specs, o.specFile, nil
	}
	specs, err := apps.Workload(o.workload)
	return specs, o.workload, err
}

// config assembles the validated options into a run configuration.
func (o *options) config(specs []apps.Spec, name string) (sim.Config, error) {
	plan, err := o.faultPlan()
	if err != nil {
		return sim.Config{}, err
	}
	horizon, err := simclock.Horizon(o.hours)
	if err != nil {
		return sim.Config{}, fmt.Errorf("-hours: %w", err)
	}
	// The trace exports need the trace and -v the records; every other
	// run keeps neither.
	export := o.traceCSV != "" || o.traceJSON != "" || o.detect || o.timeline > 0
	cfg := sim.Config{
		Name:                  name,
		Policy:                o.policy,
		Workload:              specs,
		SystemAlarms:          o.system,
		OneShots:              o.oneshots,
		Duration:              horizon,
		Beta:                  o.beta,
		Seed:                  o.seed,
		PushesPerHour:         o.pushes,
		ScreenSessionsPerHour: o.screens,
		Faults:                plan,
		NoTrace:               !export && !o.verbose,
		CollectTrace:          export,
		AlignedPhases:         o.aligned,
	}
	if o.backend {
		cfg.Backend = &backend.Model{ShedRate: o.shed, Seed: o.seed}
	}
	return cfg, nil
}

func main() {
	opts := registerFlags(flag.CommandLine)
	flag.Parse()
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	if err := opts.validate(explicit); err != nil {
		fail(err)
	}
	if opts.shardworker {
		os.Exit(shardexec.WorkerMain(context.Background(), os.Stdin, os.Stdout, os.Stderr))
	}
	if err := opts.run(os.Stdout); err != nil {
		fail(err)
	}
}

// fail prints the one-line error contract: no stack, no usage dump,
// non-zero exit.
func fail(err error) {
	fmt.Fprintf(os.Stderr, "wakesim: %v\n", err)
	os.Exit(1)
}

// run executes the simulation the options describe and writes the
// report to w. Every failure comes back as an error for main's one-line
// exit path.
func (o *options) run(w io.Writer) error {
	if o.fleetMode() {
		return o.runFleet(w)
	}
	specs, name, err := o.loadWorkload()
	if err != nil {
		return err
	}
	cfg, err := o.config(specs, name)
	if err != nil {
		return err
	}

	if o.toEmpty {
		d, err := sim.RunToEmpty(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "policy %s, workload %s: battery empty after %.1f h (%d wakeups, %d pushes)\n",
			d.PolicyName, name, d.StandbyHours, d.Wakeups, d.Pushes)
		// The drain's trace covers the whole discharge, so the export
		// flags work here exactly as in a fixed-horizon run.
		return o.exportArtifacts(w, d.Trace, d.End)
	}

	r, err := sim.Run(cfg)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "policy %s, workload %s, %.1f h, β=%.2f, seed %d\n",
		r.PolicyName, name, o.hours, cfg.Beta, o.seed)
	fmt.Fprintf(w, "energy: %s\n", r.Energy.String())
	fmt.Fprintf(w, "average power %.1f mW → projected standby %.1f h\n",
		r.Energy.AveragePowerMW(), r.StandbyHours)
	deliveries := r.DelaysAll.PerceptibleN + r.DelaysAll.ImperceptibleN
	fmt.Fprintf(w, "wakeups %d for %d deliveries (%.1f deliveries/wakeup)\n",
		r.FinalWakeups, deliveries, float64(deliveries)/float64(max(1, r.FinalWakeups)))
	fmt.Fprintf(w, "delays: perceptible %.3f%%, imperceptible %.2f%% (apps only)\n",
		r.Delays.PerceptibleMean*100, r.Delays.ImperceptibleMean*100)
	if gaps := r.WakeGaps; gaps.N > 0 {
		fmt.Fprintf(w, "wakeup spacing: min %v, mean %.1fs, max %v\n", gaps.Min, gaps.Mean, gaps.Max)
	}
	if b := r.Backend; b != nil {
		fmt.Fprintf(w, "backend: %d requests (+%d retries), shed %d → redelivered %d, dropped %d, pending %d; %d reconnects\n",
			b.Requests, b.Retries, b.Shed, b.Redelivered, b.Dropped, b.Pending, b.Reconnects)
		bs := backend.Serve(b.Hist, *cfg.Backend)
		fmt.Fprintf(w, "backend load: peak %d arrivals/bucket at %v (%v buckets), server shed %d, max backlog %d\n",
			bs.PeakArrivals, bs.PeakAt, bs.BucketWidth, bs.ServerShed, bs.MaxBacklog)
	}
	if len(r.FaultEvents) > 0 {
		fmt.Fprintf(w, "injected faults: %d event(s)\n", len(r.FaultEvents))
		for _, e := range r.FaultEvents {
			fmt.Fprintf(w, "  %v %s %s: %s\n", e.At, e.App, e.Kind, e.Detail)
		}
	}

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "hardware\twakeups/expected\tratio")
	fmt.Fprintf(tw, "CPU\t%s\t%.2f\n", r.Wakeups.CPU, r.Wakeups.CPU.Ratio())
	fmt.Fprintf(tw, "Speaker&Vibrator\t%s\t%.2f\n", r.SpkVib, r.SpkVib.Ratio())
	for _, c := range []hw.Component{hw.WiFi, hw.WPS, hw.Accelerometer} {
		row := r.Wakeups.Component[c]
		if row.Expected == 0 {
			continue
		}
		fmt.Fprintf(tw, "%s\t%s\t%.2f\n", c, row, row.Ratio())
	}
	tw.Flush()

	if o.verbose {
		fmt.Fprintln(w, "\ndeliveries per app:")
		counts := metrics.CountByApp(r.Records)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		for _, s := range specs {
			fmt.Fprintf(tw, "%s\t%d\n", s.Name, counts[s.Name])
		}
		tw.Flush()
	}

	return o.exportArtifacts(w, r.Trace, simclock.Time(r.Config.Duration))
}

// runFleet executes a fleet-mode run: load/assemble the population
// spec, stream the fleet through the aggregator, print the headline
// distributions, and optionally write the deterministic JSON aggregate.
func (o *options) runFleet(w io.Writer) error {
	var spec fleet.Spec
	if o.fleetSpec != "" {
		f, err := os.Open(o.fleetSpec)
		if err != nil {
			return err
		}
		spec, err = fleet.ReadSpec(f)
		f.Close()
		if err != nil {
			return err
		}
	}
	if o.fleet > 0 {
		spec.Devices = o.fleet
	}
	if o.explicitSet["seed"] {
		spec.Seed = o.seed
	}
	if o.explicitSet["hours"] {
		spec.Hours = o.hours
	}
	if o.explicitSet["beta"] {
		spec.Beta = o.beta
	}
	if o.explicitSet["policy"] {
		spec.TestPolicy = o.policy
	}

	res, err := shardexec.Run(context.Background(), spec, shardexec.Options{
		Procs:      o.procs,
		Workers:    o.workers,
		Checkpoint: o.checkpoint,
		Resume:     o.resume,
	})
	if err != nil {
		return err
	}
	s := res.Agg.Summary()
	fmt.Fprintf(w, "fleet: %d devices, %s vs %s, %.1f h horizon, seed %d (%.1fs wall)\n",
		s.Devices, s.BasePolicy, s.TestPolicy, s.Hours, s.Seed, res.Wall.Seconds())
	if o.procs > 0 {
		fmt.Fprintf(w, "shards: %d over %d procs, %d attempts (%d retries), %d resumed from checkpoint\n",
			res.Shards, o.procs, res.Attempts, res.Retries, res.Resumed)
	}
	pct := func(name string, d fleet.Dist) {
		fmt.Fprintf(w, "%s: mean %.1f%% ± %.1f (CI95), P50 %.1f%%, P95 %.1f%%, range [%.1f%%, %.1f%%]\n",
			name, 100*d.Mean, 100*d.CI95, 100*d.P50, 100*d.P95, 100*d.Min, 100*d.Max)
	}
	pct("total savings", s.Savings.Total)
	pct("awake savings", s.Savings.Awake)
	pct("standby extension", s.Savings.StandbyExtension)
	pct("wakeup reduction", s.Savings.WakeupReduction)
	fmt.Fprintf(w, "wakeups: %s mean %.0f, %s mean %.0f (P95 %.0f)\n",
		s.BasePolicy, s.Base.Wakeups.Mean, s.TestPolicy, s.Test.Wakeups.Mean, s.Test.Wakeups.P95)
	fmt.Fprintf(w, "%s guarantees: %d perceptible past window, %d past grace\n",
		s.TestPolicy, s.Test.PerceptibleLate, s.Test.GraceLate)
	if s.LeakyDevices > 0 {
		fmt.Fprintf(w, "injected wakelock leaks on %d device(s)\n", s.LeakyDevices)
	}

	if o.traceJSON != "" {
		blob, err := json.MarshalIndent(s, "", "  ")
		if err != nil {
			return err
		}
		if err := writeFile(o.traceJSON, func(f *os.File) error {
			_, err := f.Write(append(blob, '\n'))
			return err
		}); err != nil {
			return err
		}
		fmt.Fprintf(w, "aggregate written to %s\n", o.traceJSON)
	}
	return nil
}

// exportArtifacts renders the timeline, anomaly scan, and trace exports
// from a finished run's event log. end is the simulation's final
// virtual time — the horizon for a fixed-duration run, the moment the
// battery died for a run-to-empty discharge.
func (o *options) exportArtifacts(w io.Writer, lg *trace.Logger, end simclock.Time) error {
	if lg == nil {
		return nil
	}

	if o.timeline > 0 {
		to := simclock.Time(simclock.Duration(o.timeline) * simclock.Minute)
		if to > end {
			to = end
		}
		fmt.Fprintln(w)
		fmt.Fprint(w, trace.Timeline(lg.Events(), 0, to, 100))
	}

	if o.detect {
		findings := anomaly.Analyze(lg.Events(), end)
		if len(findings) == 0 {
			fmt.Fprintln(w, "\nanomaly scan: clean — no suspicious wakelock holds")
		} else {
			fmt.Fprintf(w, "\nanomaly scan: %d finding(s)\n", len(findings))
			for _, f := range findings {
				fmt.Fprintf(w, "  %s\n", f)
			}
		}
	}

	if o.traceCSV != "" {
		if err := writeFile(o.traceCSV, func(f *os.File) error { return lg.WriteCSV(f) }); err != nil {
			return err
		}
		fmt.Fprintf(w, "trace written to %s (%d events)\n", o.traceCSV, len(lg.Events()))
	}
	if o.traceJSON != "" {
		if err := writeFile(o.traceJSON, func(f *os.File) error { return lg.WriteJSON(f) }); err != nil {
			return err
		}
		fmt.Fprintf(w, "trace written to %s\n", o.traceJSON)
	}
	return nil
}

func writeFile(path string, fn func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return fn(f)
}
