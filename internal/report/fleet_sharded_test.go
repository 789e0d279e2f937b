package report

import (
	"context"
	"os"
	"reflect"
	"testing"

	"repro/internal/shardexec"
	"repro/internal/simclock"
)

// TestMain lets the test binary stand in for a -shardworker child: the
// supervisor re-executes os.Executable() — this test binary — as its
// shard workers, and the env marker the sharded fleet test sets routes
// those children into the worker entry point.
func TestMain(m *testing.M) {
	if os.Getenv("REPORT_TEST_SHARDWORKER") == "1" {
		os.Exit(shardexec.WorkerMain(context.Background(), os.Stdin, os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// TestFleetShardedMatchesInProcess: the fleet and herd experiments
// built through the multi-process supervisor must render exactly the
// rows the in-process build renders (wall time appears only in a note,
// which is why the comparison is on Rows, not the rendered text).
func TestFleetShardedMatchesInProcess(t *testing.T) {
	t.Setenv("REPORT_TEST_SHARDWORKER", "1")
	for _, build := range []struct {
		name string
		fn   func(Options) (*Table, error)
	}{{"fleet", Fleet}, {"herd", Herd}} {
		opts := Options{Seed: 3, Duration: simclock.Duration(simclock.Hour / 10), FleetDevices: 40}
		direct, err := build.fn(opts)
		if err != nil {
			t.Fatal(err)
		}

		opts.Procs = 2
		sharded, err := build.fn(opts)
		if err != nil {
			t.Fatal(err)
		}
		if sharded.Title != direct.Title {
			t.Fatalf("%s: titles diverged: %q vs %q", build.name, sharded.Title, direct.Title)
		}
		if !reflect.DeepEqual(sharded.Rows, direct.Rows) {
			t.Fatalf("%s: sharded table diverged from in-process build:\nsharded %v\ndirect  %v", build.name, sharded.Rows, direct.Rows)
		}
	}
}
