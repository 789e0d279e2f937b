package report

import (
	"context"
	"fmt"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/shardexec"
	"repro/internal/simclock"
)

// herdSpec is the thundering-herd scenario: a homogeneous fleet (every
// device carries the full Table 3 catalog), aligned install phases (the
// update-wave worst case), and no stochastic resume latency — so the
// population's sync schedules run in lockstep and the backend sees the
// alignment policy's full synchronized spike. The backend capacity and
// queue bound scale with the population so the per-device load story is
// invariant in the fleet size.
func herdSpec(o Options, devices int, testPolicy string) fleet.Spec {
	return fleet.Spec{
		Devices:         devices,
		Seed:            o.Seed,
		Hours:           float64(o.Duration) / float64(simclock.Hour),
		Apps:            fleet.IntRange{Min: 18, Max: 18},
		BasePolicy:      "NATIVE",
		TestPolicy:      testPolicy,
		AlignedPhases:   true,
		ZeroWakeLatency: true,
		Backend: &backend.Model{
			ShedRate:   0.05,
			Capacity:   0.4 * float64(devices),
			QueueLimit: 6 * int64(devices),
			Seed:       o.Seed,
		},
	}
}

// Herd compares the backend load the three policies inflict during a
// synchronized update wave: NATIVE (window batching), SIMTY (similarity
// batching — deferred instances pile onto shared instants, the herd at
// its worst), and SIMTY-J (SIMTY plus a per-device phase spread that
// desynchronizes the fleet). The experiment reports both edges of the
// trade: server peak/overload and mean device energy. Like Fleet, it
// runs in the execution shape Options.Procs picks, with identical rows.
func Herd(o Options) (*Table, error) {
	// The herd fleet defaults far smaller than the 10k fleet experiment:
	// each device runs the full 18-app catalog, and a few hundred lockstep
	// devices already saturate the scaled backend.
	devices := o.FleetDevices
	if devices <= 0 {
		devices = 200
	}
	o = o.withDefaults()

	type row struct {
		policy string
		b      *backend.Summary
		energy float64
	}
	var rows []row
	for _, testPolicy := range []string{"SIMTY", "SIMTY-J"} {
		spec := herdSpec(o, devices, testPolicy)
		r, err := shardexec.Run(context.Background(), spec, shardexec.Options{Procs: o.Procs, Workers: o.Workers,
			Progress: fleetProgress(o, "herd "+testPolicy)})
		if err != nil {
			return nil, err
		}
		s := r.Agg.Summary()
		if s.Base.Backend == nil || s.Test.Backend == nil {
			return nil, fmt.Errorf("report: herd summary missing backend aggregates")
		}
		if testPolicy == "SIMTY" {
			rows = append(rows, row{"NATIVE", s.Base.Backend, s.Base.EnergyMJ.Mean})
		}
		rows = append(rows, row{testPolicy, s.Test.Backend, s.Test.EnergyMJ.Mean})
	}

	m := herdSpec(o, devices, "SIMTY").Backend.WithDefaults()
	t := &Table{ID: "herd",
		Title: fmt.Sprintf("Thundering herd: backend load under a synchronized update wave (%d devices, capacity %.0f req/s, queue %d)",
			devices, m.Capacity, m.QueueLimit),
		Columns: []string{"policy", "peak arrivals/bucket", "peak at", "arrivals", "server shed", "shed rate",
			"max backlog", "depth p99", "admit p95 (ms)", "dropped", "energy (mJ)"}}
	for _, r := range rows {
		shedRate := 0.0
		if r.b.Arrivals > 0 {
			shedRate = float64(r.b.ServerShed) / float64(r.b.Arrivals)
		}
		t.AddRow(r.policy,
			fmt.Sprintf("%d", r.b.PeakArrivals),
			r.b.PeakAt.String(),
			fmt.Sprintf("%d", r.b.Arrivals),
			fmt.Sprintf("%d", r.b.ServerShed),
			fmt.Sprintf("%.1f%%", shedRate*100),
			fmt.Sprintf("%d", r.b.MaxBacklog),
			fmt.Sprintf("%.0f", r.b.QueueDepth.P99),
			fmt.Sprintf("%.0f", r.b.AdmitLatency.P95),
			fmt.Sprintf("%d", r.b.Dropped),
			fmt.Sprintf("%.0f", r.energy))
	}
	t.AddNote("Buckets are %s wide; peaks count request arrivals (first attempts plus retries) in the hottest bucket.", m.BucketWidth)
	t.AddNote("SIMTY batches the fleet onto shared instants: equal-or-worse peak than NATIVE at lower total arrivals. SIMTY-J spreads each device's batch instants by a seeded phase in [0, %s), cutting the peak while keeping SIMTY's device energy.", core.DefaultJitterSpread)
	return t, nil
}
