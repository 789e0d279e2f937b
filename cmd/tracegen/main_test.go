package main

import (
	"bytes"
	"flag"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/apps"
)

// parse runs an argument list through a fresh FlagSet exactly as main
// does, returning the options and the explicitly-set flag names.
func parse(t *testing.T, args ...string) (*options, map[string]bool) {
	t.Helper()
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o := registerFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	return o, explicit
}

// TestValidateFlagCombinations: every rejected value or combination must
// fail validation up front with a one-line error naming the offending
// flag, and legitimate combinations must pass.
func TestValidateFlagCombinations(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // error substring; "" means the combination is valid
	}{
		{"defaults", nil, ""},
		{"small generated workload", []string{"-apps", "3", "-seed", "7"}, ""},
		{"tight period band", []string{"-minperiod", "60", "-maxperiod", "60"}, ""},
		{"fraction extremes", []string{"-imperceptible", "0", "-dynamic", "1"}, ""},
		{"from alone", []string{"-from", "trace.json"}, ""},
		{"from with run knobs", []string{"-from", "trace.json", "-run", "-policy", "SIMTY-DUR", "-hours", "0.5", "-seed", "3"}, ""},
		{"from with output", []string{"-from", "trace.json", "-o", "specs.json"}, ""},

		{"zero apps", []string{"-apps", "0"}, "-apps"},
		{"negative apps", []string{"-apps", "-4"}, "-apps"},
		{"zero minperiod", []string{"-minperiod", "0"}, "-minperiod"},
		{"inverted period band", []string{"-minperiod", "600", "-maxperiod", "60"}, "-maxperiod"},
		{"imperceptible above one", []string{"-imperceptible", "1.5"}, "-imperceptible"},
		{"imperceptible negative", []string{"-imperceptible", "-0.1"}, "-imperceptible"},
		{"imperceptible NaN", []string{"-imperceptible", "NaN"}, "-imperceptible"},
		{"dynamic above one", []string{"-dynamic", "2"}, "-dynamic"},
		{"dynamic negative", []string{"-dynamic", "-1"}, "-dynamic"},
		{"zero hours", []string{"-hours", "0"}, "-hours"},
		{"negative hours", []string{"-hours", "-3"}, "-hours"},
		{"infinite hours", []string{"-hours", "+Inf"}, "-hours"},
		{"hours past the cap", []string{"-hours", "10001"}, "-hours"},
		{"unknown policy", []string{"-policy", "BOGUS"}, "unknown policy"},

		{"from with apps", []string{"-from", "t.json", "-apps", "10"}, "-apps"},
		{"from with imperceptible", []string{"-from", "t.json", "-imperceptible", "0.5"}, "-imperceptible"},
		{"from with dynamic", []string{"-from", "t.json", "-dynamic", "0.5"}, "-dynamic"},
		{"from with minperiod", []string{"-from", "t.json", "-minperiod", "30"}, "-minperiod"},
		{"from with maxperiod", []string{"-from", "t.json", "-maxperiod", "300"}, "-maxperiod"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o, explicit := parse(t, tc.args...)
			err := o.validate(explicit)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("valid combination rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("invalid combination accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name %q", err, tc.want)
			}
		})
	}
}

// TestGenerateDeterministic: the same seed yields the same workload, and
// the workload honours the validated bounds.
func TestGenerateDeterministic(t *testing.T) {
	o, explicit := parse(t, "-apps", "20", "-minperiod", "30", "-maxperiod", "120")
	if err := o.validate(explicit); err != nil {
		t.Fatal(err)
	}
	a := o.generate(rand.New(rand.NewSource(o.seed)))
	b := o.generate(rand.New(rand.NewSource(o.seed)))
	if len(a) != 20 || len(b) != 20 {
		t.Fatalf("generated %d and %d specs, want 20", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("spec %d differs across identical seeds:\n%+v\n%+v", i, a[i], b[i])
		}
		min, max := 30*1000, 120*1000 // ms
		if p := int(a[i].Period); p < min || p > max {
			t.Fatalf("spec %d period %d outside [-minperiod,-maxperiod]", i, p)
		}
	}
}

// TestExecuteWritesLoadableSpec: the -o output round-trips through the
// spec reader wakesim uses.
func TestExecuteWritesLoadableSpec(t *testing.T) {
	out := filepath.Join(t.TempDir(), "specs.json")
	o, explicit := parse(t, "-apps", "5", "-o", out)
	if err := o.validate(explicit); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := o.execute(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "synth.00") {
		t.Fatalf("table output missing generated app:\n%s", buf.String())
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	specs, err := apps.ReadSpecs(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 5 {
		t.Fatalf("round-tripped %d specs, want 5", len(specs))
	}
}

// TestExecuteMissingFrom: a nonexistent -from file is a runtime error,
// not a panic or a silent empty workload.
func TestExecuteMissingFrom(t *testing.T) {
	o, explicit := parse(t, "-from", filepath.Join(t.TempDir(), "nope.json"))
	if err := o.validate(explicit); err != nil {
		t.Fatal(err)
	}
	if err := o.execute(io.Discard); err == nil {
		t.Fatal("missing -from file accepted")
	}
}
