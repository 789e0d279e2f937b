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

// TestFleetShardedMatchesInProcess: the fleet experiment built through
// the multi-process supervisor must render exactly the rows the
// in-process build renders (wall time appears only in a note, which is
// why the comparison is on Rows, not the rendered text).
func TestFleetShardedMatchesInProcess(t *testing.T) {
	opts := Options{Seed: 3, Duration: simclock.Duration(simclock.Hour / 10), FleetDevices: 40}
	direct, err := Fleet(opts)
	if err != nil {
		t.Fatal(err)
	}

	opts.Procs = 2
	t.Setenv("REPORT_TEST_SHARDWORKER", "1")
	sharded, err := Fleet(opts)
	if err != nil {
		t.Fatal(err)
	}
	if sharded.Title != direct.Title {
		t.Fatalf("titles diverged: %q vs %q", sharded.Title, direct.Title)
	}
	if !reflect.DeepEqual(sharded.Rows, direct.Rows) {
		t.Fatalf("sharded fleet table diverged from in-process build:\nsharded %v\ndirect  %v", sharded.Rows, direct.Rows)
	}
}
