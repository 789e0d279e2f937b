// Package tournament runs a deterministic competition between alarm
// policies: every entrant simulates the same fleets of devices across a
// matrix of workload regimes (steady background sync, a diurnal day, a
// payload-heavy synchronized sync storm), and the per-regime fleet
// aggregates are ranked into a cross-regime scoreboard.
//
// Determinism contract: a Scoreboard is a pure function of its Spec.
// Each (regime, policy) cell is one side of a fleet.Run summary —
// byte-identical across worker counts, shard sizes, and process counts
// — and the ranking reads only those summaries, so marshalling a
// Scoreboard is byte-identical for a fixed Spec no matter how the
// tournament was executed. Wall-clock time is deliberately excluded.
package tournament

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/fleet"
	"repro/internal/shardexec"
	"repro/internal/sim"
)

// Regime is one workload column of the tournament matrix: the
// population knobs that vary between competitive environments. Zero
// fields inherit the fleet defaults (3 h horizon, 4–12 apps, Table 3
// catalog, no pushes or screens).
type Regime struct {
	// Name labels the regime in the scoreboard; it must be unique.
	Name string `json:"name"`
	// Hours is the per-device standby horizon (0 means the fleet
	// default of 3).
	Hours float64 `json:"hours,omitempty"`
	// Apps is the per-device app-mix size range.
	Apps fleet.IntRange `json:"apps,omitempty"`
	// PushesPerHour and ScreensPerHour are the per-device external
	// wakeup and screen-session rate ranges.
	PushesPerHour  fleet.Range `json:"pushes_per_hour,omitempty"`
	ScreensPerHour fleet.Range `json:"screens_per_hour,omitempty"`
	// Diurnal runs every device against the canonical day profile:
	// rates modulate over activity phases and context-aware policies
	// see the profile as their activity oracle.
	Diurnal bool `json:"diurnal,omitempty"`
	// Catalog selects the app catalog ("", "table3", "diffsync",
	// "mixed" — see fleet.Spec.Catalog).
	Catalog string `json:"catalog,omitempty"`
	// AlignedPhases synchronizes every device's sync schedules (the
	// update-wave scenario).
	AlignedPhases bool `json:"aligned_phases,omitempty"`
	// SystemAlarms installs the background system-service population.
	SystemAlarms bool `json:"system_alarms,omitempty"`
}

// Spec describes a tournament: who competes, on what fleets, across
// which regimes.
type Spec struct {
	// Seed drives every fleet's sampling; tournaments with equal Spec
	// values are byte-identical.
	Seed int64 `json:"seed"`
	// Devices is the fleet size every cell simulates.
	Devices int `json:"devices"`
	// Base leads the field and competes like any entrant. Default NATIVE.
	Base string `json:"base,omitempty"`
	// Policies are the entrants beyond Base. Default: NOALIGN, SIMTY,
	// SIMTY-J, SIMTY-U, AOI.
	Policies []string `json:"policies,omitempty"`
	// Regimes is the workload matrix. Default: DefaultRegimes.
	Regimes []Regime `json:"regimes,omitempty"`
	// Beta is the grace factor (0 means the simulator default).
	Beta float64 `json:"beta,omitempty"`
}

// DefaultPolicies is the default entrant list: the paper's baselines
// plus every context-aware extension this repo registers.
func DefaultPolicies() []string {
	return []string{"NOALIGN", "SIMTY", "SIMTY-J", "SIMTY-U", "AOI"}
}

// DefaultRegimes is the canonical three-column matrix: the paper's
// steady background-sync population, a full diurnal day, and a
// payload-heavy synchronized sync storm.
func DefaultRegimes() []Regime {
	return []Regime{
		{
			Name:           "steady",
			Apps:           fleet.IntRange{Min: 4, Max: 12},
			PushesPerHour:  fleet.Range{Min: 0, Max: 4},
			ScreensPerHour: fleet.Range{Min: 0, Max: 2},
			SystemAlarms:   true,
		},
		{
			Name:           "diurnal",
			Hours:          24,
			Apps:           fleet.IntRange{Min: 4, Max: 12},
			PushesPerHour:  fleet.Range{Min: 0, Max: 4},
			ScreensPerHour: fleet.Range{Min: 0, Max: 2},
			Diurnal:        true,
			SystemAlarms:   true,
		},
		{
			Name:          "sync-heavy",
			Apps:          fleet.IntRange{Min: 8, Max: 16},
			Catalog:       "mixed",
			AlignedPhases: true,
			SystemAlarms:  true,
		},
	}
}

// WithDefaults fills zero fields with the documented defaults.
func (s Spec) WithDefaults() Spec {
	if s.Base == "" {
		s.Base = "NATIVE"
	}
	if len(s.Policies) == 0 {
		s.Policies = DefaultPolicies()
	}
	if len(s.Regimes) == 0 {
		s.Regimes = DefaultRegimes()
	}
	return s
}

// Validate checks the spec after defaulting. Like fleet.Spec.Validate
// it is total over arbitrary JSON input: every violation comes back as
// an error, never a panic or a poisoned fleet spec.
func (s Spec) Validate() error {
	if s.Devices <= 0 {
		return fmt.Errorf("tournament: non-positive device count %d", s.Devices)
	}
	if _, err := sim.PolicyByName(s.Base); err != nil {
		return fmt.Errorf("tournament: base: %w", err)
	}
	seen := map[string]bool{strings.ToUpper(s.Base): true}
	for _, p := range s.Policies {
		if _, err := sim.PolicyByName(p); err != nil {
			return fmt.Errorf("tournament: %w", err)
		}
		if seen[strings.ToUpper(p)] {
			return fmt.Errorf("tournament: policy %q entered twice", p)
		}
		seen[strings.ToUpper(p)] = true
	}
	names := map[string]bool{}
	for _, r := range s.Regimes {
		if r.Name == "" {
			return fmt.Errorf("tournament: regime with empty name")
		}
		if names[r.Name] {
			return fmt.Errorf("tournament: regime %q declared twice", r.Name)
		}
		names[r.Name] = true
		// Every remaining constraint (horizon, ranges, catalog) is the
		// fleet layer's; validate the regime's fleet spec.
		if err := s.fleetSpec(r, []string{s.Base}).WithDefaults().Validate(); err != nil {
			return fmt.Errorf("tournament: regime %q: %w", r.Name, err)
		}
	}
	return nil
}

// pairs splits the field (the base, then the entrants) into the policies
// that share a fleet: two to a fleet, an odd field's last entrant alone.
func (s Spec) pairs() [][]string {
	field := append([]string{s.Base}, s.Policies...)
	var out [][]string
	for i := 0; i < len(field); i += 2 {
		out = append(out, field[i:min(i+2, len(field))])
	}
	return out
}

// fleetSpec assembles the fleet a pair shares in a regime; a lone
// entrant runs on both sides. ZeroWakeLatency is always set: the
// ranking's first criterion is the perceptible-guarantee count, which
// must reflect policy behaviour, not the stochastic 0.4–1.4 s wake latency.
func (s Spec) fleetSpec(r Regime, pair []string) fleet.Spec {
	return fleet.Spec{
		Devices:         s.Devices,
		Seed:            s.Seed,
		Hours:           r.Hours,
		Beta:            s.Beta,
		BasePolicy:      pair[0],
		TestPolicy:      pair[len(pair)-1],
		SystemAlarms:    r.SystemAlarms,
		Apps:            r.Apps,
		PushesPerHour:   r.PushesPerHour,
		ScreensPerHour:  r.ScreensPerHour,
		Diurnal:         r.Diurnal,
		Catalog:         r.Catalog,
		AlignedPhases:   r.AlignedPhases,
		ZeroWakeLatency: true,
	}
}

// Cell is one policy's showing in one regime: the fleet means the
// ranking reads, plus the guarantee counters.
type Cell struct {
	Policy string `json:"policy"`
	// Rank is the policy's 1-based standing within the regime.
	Rank int `json:"rank"`
	// PerceptibleLate counts perceptible deliveries past their window
	// end across the regime's whole fleet — the paper's inviolable
	// guarantee, and the ranking's first criterion.
	PerceptibleLate int `json:"perceptible_late"`
	// EnergyMJ is the fleet-mean device energy — the ranking's second
	// criterion.
	EnergyMJ float64 `json:"energy_mj_mean"`
	// The rest are context the scoreboard reports but does not rank on.
	Wakeups            float64 `json:"wakeups_mean"`
	StandbyHours       float64 `json:"standby_h_mean"`
	ImperceptibleDelay float64 `json:"imperceptible_delay_mean"`
	AoIMeanAge         float64 `json:"aoi_mean_age_s"`
	GraceLate          int     `json:"grace_late"`
}

// RegimeResult is one regime's ranked column.
type RegimeResult struct {
	Regime string  `json:"regime"`
	Hours  float64 `json:"hours"`
	// Cells holds every entrant plus the base policy, sorted by Rank.
	Cells []Cell `json:"cells"`
}

// Standing is one policy's cross-regime summary.
type Standing struct {
	Policy string `json:"policy"`
	// MeanRank averages the policy's per-regime ranks; lower is better.
	MeanRank float64 `json:"mean_rank"`
	// Ranks lists the per-regime ranks in Scoreboard.Regimes order.
	Ranks []int `json:"ranks"`
}

// Scoreboard is a finished tournament: the ranked per-regime columns
// and the overall standings. It contains no wall-clock time and
// marshals byte-identically for a fixed Spec.
type Scoreboard struct {
	Seed    int64  `json:"seed"`
	Devices int    `json:"devices"`
	Base    string `json:"base"`
	// Regimes holds one ranked column per regime, in Spec order.
	Regimes []RegimeResult `json:"regimes"`
	// Standings is sorted best-first: ascending mean rank, ties broken
	// by name.
	Standings []Standing `json:"standings"`
}

// Options tune tournament execution; none of them affect the
// scoreboard's bytes.
type Options struct {
	// Workers bounds each fleet run's sim pool; ≤ 0 means GOMAXPROCS.
	Workers int
	// Procs, when > 0, executes each fleet across supervised worker OS
	// processes (internal/shardexec) instead of the in-process pool.
	Procs int
	// Progress, when non-nil, is called after each (regime, entrant)
	// cell completes with the cells done so far and the matrix size.
	Progress func(regime, policy string, done, total int)

	// shardSize is a test seam: the per-process device range when
	// Procs > 0; ≤ 0 means shardexec.DefaultShardSize.
	shardSize int
}

// Run executes the tournament: every regime runs the field two policies
// to a fleet (see pairs) and reads each cell from its policy's own side
// — a side depends only on the spec, the regime and its own policy — so
// each (device, policy) is simulated once. Cancelling ctx aborts it.
func Run(ctx context.Context, spec Spec, opts Options) (*Scoreboard, error) {
	spec = spec.WithDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	sb := &Scoreboard{Seed: spec.Seed, Devices: spec.Devices, Base: spec.Base}
	total := len(spec.Regimes) * len(spec.Policies)
	done := 0
	for _, reg := range spec.Regimes {
		rr := RegimeResult{Regime: reg.Name}
		for _, pair := range spec.pairs() {
			r, err := shardexec.Run(ctx, spec.fleetSpec(reg, pair), shardexec.Options{
				Procs:     opts.Procs,
				ShardSize: opts.shardSize,
				Workers:   opts.Workers,
			})
			if err != nil {
				return nil, fmt.Errorf("tournament: regime %q, policies %v: %w", reg.Name, pair, err)
			}
			s := r.Agg.Summary()
			rr.Hours = s.Hours
			for k, side := range []fleet.PolicySummary{s.Base, s.Test}[:len(pair)] {
				rr.Cells = append(rr.Cells, makeCell(pair[k], side))
				if pair[k] != spec.Base && opts.Progress != nil {
					done++
					opts.Progress(reg.Name, pair[k], done, total)
				}
			}
		}
		rankCells(rr.Cells)
		sb.Regimes = append(sb.Regimes, rr)
	}
	sb.Standings = standings(sb.Regimes)
	return sb, nil
}

func makeCell(policy string, s fleet.PolicySummary) Cell {
	return Cell{
		Policy:             policy,
		PerceptibleLate:    s.PerceptibleLate,
		EnergyMJ:           s.EnergyMJ.Mean,
		Wakeups:            s.Wakeups.Mean,
		StandbyHours:       s.StandbyHours.Mean,
		ImperceptibleDelay: s.ImperceptibleDelay.Mean,
		AoIMeanAge:         s.AoIMeanAge.Mean,
		GraceLate:          s.GraceLate,
	}
}

// rankCells orders one regime's cells and assigns ranks: fewest broken
// perceptible guarantees first, then lowest mean energy, then name —
// the last criterion only to make equal showings deterministic.
func rankCells(cells []Cell) {
	sort.Slice(cells, func(i, j int) bool {
		a, b := cells[i], cells[j]
		if a.PerceptibleLate != b.PerceptibleLate {
			return a.PerceptibleLate < b.PerceptibleLate
		}
		if a.EnergyMJ != b.EnergyMJ {
			return a.EnergyMJ < b.EnergyMJ
		}
		return a.Policy < b.Policy
	})
	for i := range cells {
		cells[i].Rank = i + 1
	}
}

// standings folds the per-regime ranks into the overall order:
// ascending mean rank, ties broken by name.
func standings(regimes []RegimeResult) []Standing {
	ranks := map[string][]int{}
	var order []string
	for _, rr := range regimes {
		for _, c := range rr.Cells {
			if _, ok := ranks[c.Policy]; !ok {
				order = append(order, c.Policy)
			}
			ranks[c.Policy] = append(ranks[c.Policy], c.Rank)
		}
	}
	out := make([]Standing, 0, len(order))
	for _, p := range order {
		sum := 0
		for _, r := range ranks[p] {
			sum += r
		}
		out = append(out, Standing{
			Policy:   p,
			MeanRank: float64(sum) / float64(len(ranks[p])),
			Ranks:    ranks[p],
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].MeanRank != out[j].MeanRank {
			return out[i].MeanRank < out[j].MeanRank
		}
		return out[i].Policy < out[j].Policy
	})
	return out
}
