package fleet

import (
	"context"
	"testing"
)

// TestRunShardAllocsPerDevice pins what one more device of the benchmark
// fleet allocates: the slope of RunShard's allocations between 32 and 96
// devices on one worker, so the pool, the aggregate and the warm-up
// cancel out. A device samples its app mix and builds one base config,
// whose test config differs only in the policy; its two runs allocate
// their Results and each run's backend stats and arrival buckets. The
// catalogs, the Nexus 5 profile and the environment's SIMTY policy are
// shared. The run environments stay on their free list through
// collections, so the count holds with collection on.
func TestRunShardAllocsPerDevice(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race, fmt's own sync.Pool drops printers on purpose, and the devices' names are printed")
	}
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
	if slope > 12.5 {
		t.Errorf("%.2f allocations per device, ceiling 12.5", slope)
	}
}
