package tournament

import (
	"context"
	"encoding/json"
	"os"
	"testing"

	"repro/internal/fleet"
	"repro/internal/shardexec"
)

// TestMain lets the test binary double as the shard worker: the
// multi-process tests leave shardexec's default worker argv in place
// (os.Executable() -shardworker), which re-executes this test binary,
// and the env marker routes the child into the worker entry point.
func TestMain(m *testing.M) {
	if os.Getenv("TOURNAMENT_TEST_SHARDWORKER") == "1" {
		os.Exit(shardexec.WorkerMain(context.Background(), os.Stdin, os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// TestScoreboardGoldenAcrossWorkersAndProcs is the tournament's
// determinism contract as a test: for a fixed spec, the marshalled
// scoreboard is byte-identical across every execution shape — worker
// pool sizes, in-process vs supervised worker OS processes, and shard
// sizes. The first (workers=1, in-process) run is the reference; every
// other shape must reproduce its bytes exactly.
func TestScoreboardGoldenAcrossWorkersAndProcs(t *testing.T) {
	t.Setenv("TOURNAMENT_TEST_SHARDWORKER", "1")
	spec := Spec{
		Seed:     11,
		Devices:  6,
		Policies: []string{"SIMTY", "SIMTY-U", "AOI"},
		Regimes: []Regime{
			{Name: "steady", Hours: 0.3, SystemAlarms: true},
			{Name: "day", Hours: 0.3, Diurnal: true, PushesPerHour: fleet.Range{Min: 1, Max: 3}},
		},
	}
	shapes := []struct {
		name string
		opts Options
	}{
		{"workers=1", Options{Workers: 1}},
		{"workers=4", Options{Workers: 4}},
		{"procs=2", Options{Procs: 2, shardSize: 2}},
		{"procs=2/shard=4", Options{Procs: 2, shardSize: 4, Workers: 2}},
	}
	var golden []byte
	for _, shape := range shapes {
		sb, err := Run(context.Background(), spec, shape.opts)
		if err != nil {
			t.Fatalf("%s: %v", shape.name, err)
		}
		blob, err := json.MarshalIndent(sb, "", "  ")
		if err != nil {
			t.Fatalf("%s: marshal: %v", shape.name, err)
		}
		if golden == nil {
			golden = blob
			continue
		}
		if string(blob) != string(golden) {
			t.Fatalf("%s scoreboard diverged from the workers=1 reference:\n%s\nvs\n%s", shape.name, blob, golden)
		}
	}
}
