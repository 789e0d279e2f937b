package main

import (
	"bytes"
	"flag"
	"io"
	"strings"
	"testing"
)

// parse runs an argument list through a fresh FlagSet exactly as main
// does.
func parse(t *testing.T, args ...string) *options {
	t.Helper()
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o := registerFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return o
}

// TestValidateFlags is the regression test for the silent-garbage bug:
// report used to accept -trials 0, negative horizons, and misspelled
// formats, discovering the format only after the first experiment had
// already burned its simulation time. Every bad value must now fail
// validation up front with a one-line error naming the offender.
func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // error substring; "" means valid
	}{
		{"defaults", nil, ""},
		{"named experiment", []string{"-experiment", "table1"}, ""},
		{"list", []string{"-experiment", "list"}, ""},
		{"markdown", []string{"-format", "markdown"}, ""},
		{"csv with tuning", []string{"-format", "csv", "-trials", "1", "-hours", "0.5", "-workers", "4", "-devices", "100"}, ""},
		{"sharded fleet", []string{"-experiment", "fleet", "-procs", "2"}, ""},

		{"unknown experiment", []string{"-experiment", "table99"}, "unknown experiment"},
		{"zero trials", []string{"-trials", "0"}, "-trials"},
		{"negative trials", []string{"-trials", "-2"}, "-trials"},
		{"zero hours", []string{"-hours", "0"}, "-hours"},
		{"negative hours", []string{"-hours", "-3"}, "-hours"},
		{"NaN hours", []string{"-hours", "NaN"}, "-hours"},
		{"infinite hours", []string{"-hours", "Inf"}, "-hours"},
		{"hours past the cap", []string{"-hours", "10001"}, "-hours"},
		{"unknown format", []string{"-format", "yaml"}, "unknown format"},
		{"misspelled format", []string{"-format", "markdwon"}, "unknown format"},
		{"negative workers", []string{"-workers", "-1"}, "-workers"},
		{"negative devices", []string{"-devices", "-5"}, "-devices"},
		{"negative procs", []string{"-procs", "-2"}, "-procs"},
		{"sharded tournament", []string{"-experiment", "tournament", "-procs", "2"}, ""},
		{"herd population", []string{"-experiment", "herd", "-devices", "50"}, ""},
		{"procs with fig3", []string{"-experiment", "fig3", "-procs", "2"}, "-procs only applies"},
		{"procs with herd", []string{"-experiment", "herd", "-procs", "2"}, ""},
		{"devices with table1", []string{"-experiment", "table1", "-devices", "100"}, "-devices only applies"},
		{"devices with list", []string{"-experiment", "list", "-devices", "100"}, "-devices only applies"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := parse(t, c.args...).validate()
			if c.want == "" {
				if err != nil {
					t.Fatalf("validate(%v) = %v, want nil", c.args, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("validate(%v) = %v, want error naming %q", c.args, err, c.want)
			}
		})
	}
}

func TestRunList(t *testing.T) {
	var out bytes.Buffer
	o := parse(t, "-experiment", "list")
	if err := o.run(&out, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"table1", "table3", "fig2", "fleet"} {
		if !strings.Contains(out.String(), id) {
			t.Fatalf("list output missing %q:\n%s", id, out.String())
		}
	}
}

// TestRunSingleExperiment exercises the full path on the cheapest
// configuration: one trial, short horizon, one table.
func TestRunSingleExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real experiment")
	}
	var out bytes.Buffer
	o := parse(t, "-experiment", "table1", "-trials", "1", "-hours", "0.5", "-format", "csv")
	if err := o.run(&out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `time\hardware`) {
		t.Fatalf("table output missing the similarity-class header:\n%s", out.String())
	}
}
