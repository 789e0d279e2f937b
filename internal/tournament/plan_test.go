package tournament

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/alarm"
	"repro/internal/fleet"
)

// perEntrantOracle is the plan Run followed before the field shared
// fleets: one (base, entrant) fleet per entrant, with the base cell
// read from the first entrant's fleet. It simulates the base once per
// entrant, so it is only a reference: Run must reproduce its bytes.
func perEntrantOracle(t *testing.T, spec Spec) []byte {
	t.Helper()
	spec = spec.WithDefaults()
	sb := &Scoreboard{Seed: spec.Seed, Devices: spec.Devices, Base: spec.Base}
	for _, reg := range spec.Regimes {
		rr := RegimeResult{Regime: reg.Name, Hours: fleet.Spec{Hours: reg.Hours}.WithDefaults().Hours}
		for i, policy := range spec.Policies {
			r, err := fleet.Run(context.Background(), spec.fleetSpec(reg, []string{spec.Base, policy}), fleet.Options{Workers: 1})
			if err != nil {
				t.Fatalf("oracle: regime %q, policy %s: %v", reg.Name, policy, err)
			}
			s := r.Agg.Summary()
			if i == 0 {
				rr.Cells = append(rr.Cells, makeCell(spec.Base, s.Base))
			}
			rr.Cells = append(rr.Cells, makeCell(policy, s.Test))
		}
		rankCells(rr.Cells)
		sb.Regimes = append(sb.Regimes, rr)
	}
	sb.Standings = standings(sb.Regimes)
	blob, err := json.Marshal(sb)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestTournamentMatchesPerEntrantOracle pins that sharing fleets changes
// no scoreboard byte and no progress call: on an even field, an odd one
// (whose last entrant rides alone), a non-NATIVE base and a
// multi-process shape, Run agrees with the one-fleet-per-entrant
// reference run in-process.
func TestTournamentMatchesPerEntrantOracle(t *testing.T) {
	t.Setenv("TOURNAMENT_TEST_SHARDWORKER", "1")
	regimes := []Regime{
		{Name: "steady", Hours: 0.4, SystemAlarms: true},
		{Name: "day", Hours: 0.4, Diurnal: true, PushesPerHour: fleet.Range{Min: 1, Max: 3}},
	}
	cases := []struct {
		name string
		spec Spec
		opts Options
	}{
		{"even field", smallSpec(), Options{}},
		{"odd field", Spec{Seed: 5, Devices: 3, Policies: []string{"SIMTY", "SIMTY-U"}, Regimes: regimes}, Options{}},
		{"non-NATIVE base", Spec{Seed: 9, Devices: 3, Base: "SIMTY-J",
			Policies: []string{"NATIVE", "AOI", "NOALIGN"}, Regimes: regimes}, Options{Workers: 2}},
		{"procs=2", smallSpec(), Options{Procs: 2, shardSize: 2}},
	}
	for _, tc := range cases {
		var progress, wantProgress []string
		tc.opts.Progress = func(regime, policy string, done, total int) {
			progress = append(progress, fmt.Sprintf("%s/%s %d/%d", regime, policy, done, total))
		}
		sb, err := Run(context.Background(), tc.spec, tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got, err := json.Marshal(sb)
		if err != nil {
			t.Fatal(err)
		}
		if want := perEntrantOracle(t, tc.spec); string(got) != string(want) {
			t.Errorf("%s: scoreboard diverged from the per-entrant oracle:\n%s\nvs\n%s", tc.name, got, want)
		}
		// Progress still fires once per entrant cell, in field order.
		spec := tc.spec.WithDefaults()
		for _, reg := range spec.Regimes {
			for _, policy := range spec.Policies {
				wantProgress = append(wantProgress, fmt.Sprintf("%s/%s %d/%d",
					reg.Name, policy, len(wantProgress)+1, len(spec.Regimes)*len(spec.Policies)))
			}
		}
		if fmt.Sprint(progress) != fmt.Sprint(wantProgress) {
			t.Errorf("%s: progress %v, want %v", tc.name, progress, wantProgress)
		}
	}
}

// countedPolicy is NATIVE under another name, counting its run-time
// constructions: sim.Run builds a run's policy with the device's
// non-zero seed, while validation lookups pass a zero context. The
// registry rejects a second registration, and the race hammer runs this
// package twice in one process, so it registers once.
const countedPolicy = "COUNTED-NATIVE"

var (
	registerCounted sync.Once
	countedBuilds   atomic.Int64
)

// TestTournamentSimulatesEachDevicePolicyOnce counts the base policy's
// runs: with it leading a four-policy field over 2 regimes × 3 devices,
// it must be built 6 times — once per (regime, device) — where one
// fleet per entrant would build it 18 times.
func TestTournamentSimulatesEachDevicePolicyOnce(t *testing.T) {
	registerCounted.Do(func() {
		alarm.MustRegister(countedPolicy, func(ctx alarm.PolicyContext) (alarm.Policy, error) {
			if ctx.Seed != 0 {
				countedBuilds.Add(1)
			}
			return alarm.PolicyByName("NATIVE", ctx)
		})
	})
	countedBuilds.Store(0)
	spec := Spec{
		Seed:     3,
		Devices:  3,
		Base:     countedPolicy,
		Policies: []string{"NOALIGN", "SIMTY", "AOI"},
		Regimes: []Regime{
			{Name: "steady", Hours: 0.2, SystemAlarms: true},
			{Name: "day", Hours: 0.2, Diurnal: true},
		},
	}
	if _, err := Run(context.Background(), spec, Options{}); err != nil {
		t.Fatal(err)
	}
	if n := countedBuilds.Load(); n != 6 {
		t.Fatalf("base policy built %d times, want 6 (2 regimes × 3 devices)", n)
	}
}
