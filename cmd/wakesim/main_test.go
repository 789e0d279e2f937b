package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/shardexec"
	"repro/internal/simclock"
)

// TestMain lets the test binary stand in for the wakesim -shardworker
// child: the multi-process tests leave shardexec's default worker argv
// in place (os.Executable() -shardworker), which re-executes this test
// binary, and the env marker routes the child into the real worker
// entry point instead of the test suite.
func TestMain(m *testing.M) {
	if os.Getenv("WAKESIM_TEST_SHARDWORKER") == "1" {
		os.Exit(shardexec.WorkerMain(context.Background(), os.Stdin, os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// parse runs an argument list through a fresh FlagSet exactly as main
// does, returning the options and the explicitly-set flag names.
func parse(t *testing.T, args ...string) (*options, map[string]bool) {
	t.Helper()
	fs := flag.NewFlagSet("wakesim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o := registerFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	return o, explicit
}

// TestValidateFlagCombinations is the satellite's table-driven test:
// every rejected combination must fail validation up front with a
// one-line error naming the offending flag, and legitimate combinations
// must pass.
func TestValidateFlagCombinations(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // error substring; "" means the combination is valid
	}{
		{"defaults", nil, ""},
		{"light workload", []string{"-workload", "light"}, ""},
		{"explicit default workload", []string{"-workload", "heavy"}, ""},
		{"spec file alone", []string{"-spec", "w.json"}, ""},
		{"every policy spelled right", []string{"-policy", "simty-hw4"}, ""},
		{"toempty with exports", []string{"-toempty", "-anomaly", "-timeline", "10"}, ""},
		{"fault flags", []string{"-leak", "Viber,Weibo", "-leaknever", "Line", "-storm", "rogue:5"}, ""},
		{"storm with count", []string{"-storm", "rogue:0.5:100"}, ""},

		{"fleet alone", []string{"-fleet", "100"}, ""},
		{"fleet with overrides", []string{"-fleet", "50", "-seed", "9", "-hours", "0.5", "-beta", "0.9", "-policy", "SIMTY-DUR", "-workers", "4", "-json", "agg.json"}, ""},
		{"fleetspec alone", []string{"-fleetspec", "pop.json"}, ""},

		{"unknown policy", []string{"-policy", "BOGUS"}, "unknown policy"},
		{"negative fleet", []string{"-fleet", "-5"}, "-fleet"},
		{"negative workers", []string{"-fleet", "10", "-workers", "-1"}, "-workers"},
		{"workers without fleet", []string{"-workers", "4"}, "-workers"},
		{"fleet with workload", []string{"-fleet", "10", "-workload", "light"}, "-workload"},
		{"fleet with spec", []string{"-fleet", "10", "-spec", "w.json"}, "-spec"},
		{"fleet with toempty", []string{"-fleet", "10", "-toempty"}, "-toempty"},
		{"fleet with trace", []string{"-fleet", "10", "-trace", "t.csv"}, "-trace"},
		{"fleet with timeline", []string{"-fleet", "10", "-timeline", "5"}, "-timeline"},
		{"fleet with anomaly", []string{"-fleet", "10", "-anomaly"}, "-anomaly"},
		{"fleet with leak", []string{"-fleet", "10", "-leak", "Viber"}, "-leak"},
		{"fleet with storm", []string{"-fleet", "10", "-storm", "rogue:5"}, "-storm"},
		{"fleet with pushes", []string{"-fleet", "10", "-pushes", "2"}, "-pushes"},
		{"fleet with oneshots", []string{"-fleet", "10", "-oneshots", "3"}, "-oneshots"},
		{"unknown workload", []string{"-workload", "gigantic"}, "unknown workload"},
		{"spec and workload", []string{"-spec", "w.json", "-workload", "light"}, "mutually exclusive"},
		{"zero hours", []string{"-hours", "0"}, "-hours"},
		{"negative hours", []string{"-hours", "-3"}, "-hours"},
		{"NaN hours", []string{"-hours", "NaN"}, "-hours"},
		{"hours past the cap", []string{"-hours", "10001"}, "-hours"},
		{"beta zero", []string{"-beta", "0"}, "-beta"},
		{"beta one", []string{"-beta", "1"}, "-beta"},
		{"beta NaN", []string{"-beta", "NaN"}, "-beta"},
		{"negative oneshots", []string{"-oneshots", "-1"}, "-oneshots"},
		{"negative pushes", []string{"-pushes", "-2"}, "-pushes"},
		{"infinite pushes", []string{"-pushes", "Inf"}, "-pushes"},
		{"negative screens", []string{"-screens", "-1"}, "-screens"},
		{"negative timeline", []string{"-timeline", "-5"}, "-timeline"},
		{"storm missing period", []string{"-storm", "rogue"}, "-storm"},
		{"storm empty app", []string{"-storm", ":5"}, "-storm"},
		{"storm zero period", []string{"-storm", "rogue:0"}, "-storm"},
		{"storm sub-ms period", []string{"-storm", "rogue:1e-9"}, "-storm"},
		{"storm bad count", []string{"-storm", "rogue:5:x"}, "-storm"},
		{"storm negative count", []string{"-storm", "rogue:5:-1"}, "-storm"},
		{"storm too many fields", []string{"-storm", "a:b:c:d"}, "-storm"},

		{"backend alone", []string{"-backend"}, ""},
		{"backend with shed", []string{"-backend", "-shed", "0.1"}, ""},
		{"backend with jitter policy", []string{"-backend", "-alignedphases", "-policy", "SIMTY-J"}, ""},
		{"shed without backend", []string{"-shed", "0.1"}, "-shed requires -backend"},
		{"shed out of range", []string{"-backend", "-shed", "1"}, "-shed"},
		{"negative shed", []string{"-backend", "-shed", "-0.1"}, "-shed"},
		{"backend with fleet", []string{"-fleet", "10", "-backend"}, "-backend"},
		{"alignedphases with fleet", []string{"-fleet", "10", "-alignedphases"}, "-alignedphases"},

		{"fleet with procs", []string{"-fleet", "10", "-procs", "2"}, ""},
		{"procs with checkpoint", []string{"-fleet", "10", "-procs", "2", "-checkpoint", "f.ckpt"}, ""},
		{"procs checkpoint resume", []string{"-fleet", "10", "-procs", "2", "-checkpoint", "f.ckpt", "-resume"}, ""},
		{"shardworker alone", []string{"-shardworker"}, ""},
		{"negative procs", []string{"-fleet", "10", "-procs", "-1"}, "-procs"},
		{"procs without fleet", []string{"-procs", "2"}, "-procs"},
		{"checkpoint without procs", []string{"-fleet", "10", "-checkpoint", "f.ckpt"}, "-checkpoint requires -procs"},
		{"checkpoint without anything", []string{"-checkpoint", "f.ckpt"}, "-checkpoint requires -procs"},
		{"resume without checkpoint", []string{"-fleet", "10", "-procs", "2", "-resume"}, "-resume requires -checkpoint"},
		{"shardworker with fleet", []string{"-shardworker", "-fleet", "10"}, "-shardworker"},
		{"shardworker with policy", []string{"-shardworker", "-policy", "SIMTY"}, "-shardworker"},
		{"shardworker with json", []string{"-shardworker", "-json", "out.json"}, "-shardworker"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			o, explicit := parse(t, c.args...)
			err := o.validate(explicit)
			if c.want == "" {
				if err != nil {
					t.Fatalf("valid combination rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("invalid combination %v accepted", c.args)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not name %q", err, c.want)
			}
			if strings.Contains(err.Error(), "\n") {
				t.Fatalf("error is not one line: %q", err)
			}
		})
	}
}

// TestFaultPlanFromFlags checks the flag→plan translation.
func TestFaultPlanFromFlags(t *testing.T) {
	o, _ := parse(t, "-leak", " Viber , Weibo ", "-leaknever", "Line", "-storm", "rogue:5:42")
	plan, err := o.faultPlan()
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Leaks) != 3 {
		t.Fatalf("%d leaks: %+v", len(plan.Leaks), plan.Leaks)
	}
	if plan.Leaks[0].App != "Viber" || plan.Leaks[0].Mode != fault.LeakLate {
		t.Errorf("leak 0: %+v", plan.Leaks[0])
	}
	if plan.Leaks[2].App != "Line" || plan.Leaks[2].Mode != fault.LeakNever {
		t.Errorf("leak 2: %+v", plan.Leaks[2])
	}
	if len(plan.Storms) != 1 || plan.Storms[0].App != "rogue" ||
		plan.Storms[0].Period != 5*simclock.Second || plan.Storms[0].Count != 42 {
		t.Errorf("storm: %+v", plan.Storms)
	}

	o, _ = parse(t)
	if plan, err := o.faultPlan(); err != nil || plan != nil {
		t.Errorf("no fault flags produced plan %+v, err %v", plan, err)
	}
}

// TestRunEndToEnd drives the full CLI path (short horizon) including a
// fault plan with the anomaly scan, and checks the error path for an
// app the workload does not contain.
func TestRunEndToEnd(t *testing.T) {
	o, _ := parse(t, "-workload", "light", "-hours", "0.5", "-leaknever", "Facebook", "-anomaly")
	var out bytes.Buffer
	if err := o.run(&out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "injected faults:") {
		t.Errorf("fault events missing from the report:\n%s", s)
	}
	if !strings.Contains(s, "anomaly scan:") || !strings.Contains(s, "Facebook") {
		t.Errorf("anomaly scan did not flag the leaky app:\n%s", s)
	}

	o, _ = parse(t, "-workload", "light", "-hours", "0.5", "-leak", "NoSuchApp")
	if err := o.run(io.Discard); err == nil || !strings.Contains(err.Error(), "NoSuchApp") {
		t.Fatalf("leak target outside the workload accepted: %v", err)
	}
}

// TestRunFleetEndToEnd drives fleet mode: a spec file plus command-line
// overrides, the text summary, and the JSON aggregate export.
func TestRunFleetEndToEnd(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "pop.json")
	if err := os.WriteFile(specPath, []byte(`{
		"devices": 200, "seed": 4, "hours": 2,
		"apps": {"min": 1, "max": 4}, "leak_fraction": 0.3
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	aggPath := filepath.Join(dir, "agg.json")

	o, explicit := parse(t, "-fleetspec", specPath, "-fleet", "20", "-hours", "0.5",
		"-seed", "11", "-policy", "SIMTY-DUR", "-json", aggPath)
	if err := o.validate(explicit); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := o.run(&out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"fleet: 20 devices, NATIVE vs SIMTY-DUR, 0.5 h horizon, seed 11",
		"total savings:",
		"wakeup reduction:",
		"injected wakelock leaks on",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("fleet summary missing %q:\n%s", want, s)
		}
	}

	blob, err := os.ReadFile(aggPath)
	if err != nil {
		t.Fatal(err)
	}
	var summary struct {
		Devices int     `json:"devices"`
		Seed    int64   `json:"seed"`
		Hours   float64 `json:"hours"`
	}
	if err := json.Unmarshal(blob, &summary); err != nil {
		t.Fatalf("aggregate is not valid JSON: %v", err)
	}
	if summary.Devices != 20 || summary.Seed != 11 || summary.Hours != 0.5 {
		t.Errorf("aggregate overrides not applied: %+v", summary)
	}

	o, explicit = parse(t, "-fleetspec", filepath.Join(dir, "missing.json"))
	if err := o.validate(explicit); err != nil {
		t.Fatal(err)
	}
	if err := o.run(io.Discard); err == nil {
		t.Fatal("missing fleet spec file accepted")
	}
}

// runCLI validates and runs one argument list, returning the text
// output; the test binary itself serves as the shard worker (TestMain).
func runCLI(t *testing.T, args ...string) string {
	t.Helper()
	o, explicit := parse(t, args...)
	if err := o.validate(explicit); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := o.run(&out); err != nil {
		t.Fatalf("run %v: %v\n%s", args, err, out.String())
	}
	return out.String()
}

// TestRunFleetMultiProcess drives the -procs path end to end: the JSON
// aggregate must be byte-identical to the in-process run, and a
// -checkpoint / -resume round trip must re-run nothing once the
// checkpoint is complete.
func TestRunFleetMultiProcess(t *testing.T) {
	t.Setenv("WAKESIM_TEST_SHARDWORKER", "1")
	dir := t.TempDir()
	base := []string{"-fleet", "20", "-hours", "0.5", "-seed", "7"}

	single := filepath.Join(dir, "single.json")
	runCLI(t, append(base, "-json", single)...)

	multi := filepath.Join(dir, "multi.json")
	s := runCLI(t, append(base, "-procs", "2", "-json", multi)...)
	if !strings.Contains(s, "shards: 1 over 2 procs, 1 attempts (0 retries), 0 resumed") {
		t.Errorf("multi-process summary missing the shard line:\n%s", s)
	}
	want, err := os.ReadFile(single)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(multi)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("multi-process aggregate diverged from in-process run:\n got %s\nwant %s", got, want)
	}

	// Checkpoint, then resume: the completed checkpoint satisfies the
	// whole run, so the resumed invocation launches zero workers.
	ckpt := filepath.Join(dir, "run.ckpt")
	runCLI(t, append(base, "-procs", "1", "-checkpoint", ckpt)...)
	resumed := filepath.Join(dir, "resumed.json")
	s = runCLI(t, append(base, "-procs", "2", "-checkpoint", ckpt, "-resume", "-json", resumed)...)
	if !strings.Contains(s, "shards: 1 over 2 procs, 0 attempts (0 retries), 1 resumed") {
		t.Errorf("resumed summary did not reuse the checkpoint:\n%s", s)
	}
	got, err = os.ReadFile(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("resumed aggregate diverged from in-process run")
	}
}
