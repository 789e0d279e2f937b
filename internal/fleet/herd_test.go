package fleet

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/backend"
)

// herdSpec is the shared thundering-herd configuration: an aligned-phase
// fleet (every device installs its apps at offset = period, the
// fleet-wide update-wave scenario) with the backend co-simulation on.
func herdSpec(testPolicy string) Spec {
	return Spec{
		Devices:    48,
		Seed:       42,
		Hours:      2,
		Apps:       IntRange{Min: 18, Max: 18},
		BasePolicy: "NATIVE",
		TestPolicy: testPolicy,
		// Identical full-catalog app mixes, aligned install phases, and no
		// stochastic resume latency put the whole fleet in lockstep — the
		// update-wave worst case where batching policies synchronize the
		// population's sync instants.
		AlignedPhases:   true,
		ZeroWakeLatency: true,
		Backend:         &backend.Model{ShedRate: 0.05, Capacity: 20, QueueLimit: 300},
	}
}

func herdSummary(t *testing.T, testPolicy string, workers int) Summary {
	t.Helper()
	res, err := Run(context.Background(), herdSpec(testPolicy), Options{Workers: workers})
	if err != nil {
		t.Fatalf("%s: %v", testPolicy, err)
	}
	return res.Agg.Summary()
}

// TestHerdPeakOrdering pins the headline of the herd experiment: under
// aligned phases SIMTY's batching concentrates the fleet's requests onto
// shared instants at least as hard as NATIVE's, and SIMTY-J's per-device
// phase jitter spreads that spike back out while keeping SIMTY's energy.
func TestHerdPeakOrdering(t *testing.T) {
	simty := herdSummary(t, "SIMTY", 4)
	simtyJ := herdSummary(t, "SIMTY-J", 4)

	native := simty.Base.Backend
	if native == nil || simty.Test.Backend == nil || simtyJ.Test.Backend == nil {
		t.Fatal("missing backend summaries")
	}
	t.Logf("NATIVE : peak=%d arrivals=%d serverShed=%d depth p99=%.0f energy=%.0f mJ",
		native.PeakArrivals, native.Arrivals, native.ServerShed, native.QueueDepth.P99, simty.Base.EnergyMJ.Mean)
	t.Logf("SIMTY  : peak=%d arrivals=%d serverShed=%d depth p99=%.0f energy=%.0f mJ",
		simty.Test.Backend.PeakArrivals, simty.Test.Backend.Arrivals, simty.Test.Backend.ServerShed,
		simty.Test.Backend.QueueDepth.P99, simty.Test.EnergyMJ.Mean)
	t.Logf("SIMTY-J: peak=%d arrivals=%d serverShed=%d depth p99=%.0f energy=%.0f mJ",
		simtyJ.Test.Backend.PeakArrivals, simtyJ.Test.Backend.Arrivals, simtyJ.Test.Backend.ServerShed,
		simtyJ.Test.Backend.QueueDepth.P99, simtyJ.Test.EnergyMJ.Mean)

	if simty.Test.Backend.PeakArrivals < native.PeakArrivals {
		t.Errorf("SIMTY peak %d < NATIVE peak %d", simty.Test.Backend.PeakArrivals, native.PeakArrivals)
	}
	if simtyJ.Test.Backend.PeakArrivals >= simty.Test.Backend.PeakArrivals {
		t.Errorf("SIMTY-J peak %d did not reduce SIMTY peak %d",
			simtyJ.Test.Backend.PeakArrivals, simty.Test.Backend.PeakArrivals)
	}
	// SIMTY-J retains most of SIMTY's energy win: its mean device energy
	// stays below NATIVE's, within a few percent of SIMTY's.
	if simtyJ.Test.EnergyMJ.Mean >= simty.Base.EnergyMJ.Mean {
		t.Errorf("SIMTY-J energy %.1f mJ >= NATIVE %.1f mJ", simtyJ.Test.EnergyMJ.Mean, simty.Base.EnergyMJ.Mean)
	}
	if simtyJ.Test.EnergyMJ.Mean > simty.Test.EnergyMJ.Mean*1.10 {
		t.Errorf("SIMTY-J energy %.1f mJ gave back more than 10%% of SIMTY's %.1f mJ",
			simtyJ.Test.EnergyMJ.Mean, simty.Test.EnergyMJ.Mean)
	}
	// The spike is what overloads the queue: jitter keeps SIMTY-J's
	// arrivals under the server's queue limit while the synchronized
	// policies shed.
	if simtyJ.Test.Backend.ServerShed >= simty.Test.Backend.ServerShed {
		t.Errorf("SIMTY-J server shed %d not below SIMTY's %d",
			simtyJ.Test.Backend.ServerShed, simty.Test.Backend.ServerShed)
	}
}

// TestHerdByteIdenticalAcrossWorkersAndShards extends the fleet
// determinism contract to the backend fold: the marshaled herd summary —
// merged arrival histograms, server-queue replay, retry counters — is
// byte-identical no matter how the devices were sharded across workers.
func TestHerdByteIdenticalAcrossWorkersAndShards(t *testing.T) {
	want, err := json.Marshal(herdSummary(t, "SIMTY-J", 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ workers int }{{4}, {1}, {4}} {
		got, err := json.Marshal(herdSummary(t, "SIMTY-J", c.workers))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("workers=%d: summary differs from workers=1",
				c.workers)
		}
	}
}
