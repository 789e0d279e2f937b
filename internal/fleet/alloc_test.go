package fleet

import (
	"context"
	"runtime/debug"
	"testing"
)

// TestRunShardAllocsPerDevice pins what one more device of the benchmark
// fleet allocates: the slope of RunShard's allocations between 32 and 96
// devices on one worker, so the pool, the aggregate and the warm-up
// cancel out. A device samples its app mix and builds one base config,
// whose test config differs only in the policy; its two runs allocate
// their Results, the SIMTY policy and each run's backend stats and
// arrival buckets. The catalogs and the Nexus 5 profile are shared.
func TestRunShardAllocsPerDevice(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race, sync.Pool.Put drops a random quarter of its objects")
	}
	// A collection empties the sync.Pools the runs draw from, and
	// refilling them allocates, so where collections fall would move the
	// count by a few objects. With collection off, it is exact.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := func(devices int) float64 {
		spec := benchFleetSpec(devices)
		return testing.AllocsPerRun(3, func() {
			if _, err := RunShard(context.Background(), spec, 0, devices, 1); err != nil {
				t.Fatal(err)
			}
		})
	}
	lo, hi := allocs(32), allocs(96)
	slope := (hi - lo) / 64
	t.Logf("32 devices: %.0f allocations, 96: %.0f, %.2f per device", lo, hi, slope)
	if slope > 13.5 {
		t.Errorf("%.2f allocations per device, ceiling 13.5", slope)
	}
}
