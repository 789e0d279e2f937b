package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/apps"
	"repro/internal/sim"
	"repro/internal/simclock"
)

// RunSpec is the POST /runs request body: one device's connected-
// standby run. Workloads arrive either by catalog name or as an
// explicit app-spec array in the same JSON shape cmd/tracegen writes
// and cmd/wakesim -spec reads (the specjson path — apps.ReadSpecs
// validates it field by field).
type RunSpec struct {
	// Name labels the run in results; defaults to the workload name.
	Name string `json:"name,omitempty"`
	// Policy is the alignment policy (default SIMTY).
	Policy string `json:"policy,omitempty"`
	// Workload names a built-in catalog: light, heavy, or table3
	// (default heavy). Mutually exclusive with Apps.
	Workload string `json:"workload,omitempty"`
	// Apps is an explicit workload: a JSON array of app specs in the
	// specjson on-disk form (period_s, alpha, hw, task_s, ...).
	Apps json.RawMessage `json:"apps,omitempty"`
	// Hours is the standby horizon (default 3).
	Hours float64 `json:"hours,omitempty"`
	// Beta is the grace factor β (default 0.96).
	Beta float64 `json:"beta,omitempty"`
	// Seed drives every stochastic draw (default 1).
	Seed int64 `json:"seed,omitempty"`
	// SystemAlarms installs the background system-service population.
	SystemAlarms bool `json:"system_alarms,omitempty"`
	// OneShots schedules sporadic one-shot alarms across the horizon.
	OneShots int `json:"one_shots,omitempty"`
	// PushesPerHour / ScreensPerHour are the external-wakeup and
	// screen-session Poisson rates.
	PushesPerHour  float64 `json:"pushes_per_hour,omitempty"`
	ScreensPerHour float64 `json:"screens_per_hour,omitempty"`
	// TaskJitter randomizes task durations within ±TaskJitter×nominal.
	TaskJitter float64 `json:"task_jitter,omitempty"`
}

// Config resolves the request into a validated sim.Config. Every
// violation comes back as an error suitable for a 400 — nothing
// half-built reaches the executor.
func (rs RunSpec) Config() (sim.Config, error) {
	if err := sim.CheckPolicy(defaultStr(rs.Policy, "SIMTY")); err != nil {
		return sim.Config{}, err
	}
	hours := rs.Hours
	if hours == 0 {
		hours = 3
	}
	horizon, err := simclock.Horizon(hours)
	if err != nil {
		return sim.Config{}, err
	}
	seed := rs.Seed
	if seed == 0 {
		seed = 1
	}

	var workload []apps.Spec
	name := rs.Name
	switch {
	case len(rs.Apps) > 0 && rs.Workload != "":
		return sim.Config{}, fmt.Errorf("workload and apps are mutually exclusive: the apps array is the workload")
	case len(rs.Apps) > 0:
		specs, err := apps.ReadSpecs(bytes.NewReader(rs.Apps))
		if err != nil {
			return sim.Config{}, err
		}
		workload, name = specs, defaultStr(name, "custom")
	default:
		w := defaultStr(rs.Workload, "heavy")
		specs, err := apps.Workload(w)
		if err != nil {
			return sim.Config{}, err
		}
		workload, name = specs, defaultStr(name, w)
	}

	cfg := sim.Config{
		Name:                  name,
		Policy:                defaultStr(rs.Policy, "SIMTY"),
		Workload:              workload,
		SystemAlarms:          rs.SystemAlarms,
		OneShots:              rs.OneShots,
		Duration:              horizon,
		Beta:                  rs.Beta,
		Seed:                  seed,
		PushesPerHour:         rs.PushesPerHour,
		ScreenSessionsPerHour: rs.ScreensPerHour,
		TaskJitter:            rs.TaskJitter,
	}
	if err := cfg.Validate(); err != nil {
		return sim.Config{}, err
	}
	return cfg, nil
}

func defaultStr(s, d string) string {
	if s == "" {
		return d
	}
	return s
}

// RunSummary is the stored outcome of one single-device run: the
// headline metrics, not the (potentially huge) delivery records.
type RunSummary struct {
	Name               string  `json:"name"`
	Policy             string  `json:"policy"`
	EnergyMJ           float64 `json:"energy_mj"`
	AveragePowerMW     float64 `json:"average_power_mw"`
	StandbyHours       float64 `json:"standby_h"`
	Wakeups            int     `json:"wakeups"`
	Deliveries         int     `json:"deliveries"`
	Pushes             int     `json:"pushes"`
	PerceptibleDelay   float64 `json:"perceptible_delay"`
	ImperceptibleDelay float64 `json:"imperceptible_delay"`
	WallMS             float64 `json:"wall_ms"`
}

// summarize reduces a finished run to its stored form.
func summarize(r *sim.Result) RunSummary {
	return RunSummary{
		Name:               r.Config.Name,
		Policy:             r.PolicyName,
		EnergyMJ:           r.Energy.TotalMJ(),
		AveragePowerMW:     r.Energy.AveragePowerMW(),
		StandbyHours:       r.StandbyHours,
		Wakeups:            r.FinalWakeups,
		Deliveries:         r.DelaysAll.PerceptibleN + r.DelaysAll.ImperceptibleN,
		Pushes:             r.Pushes,
		PerceptibleDelay:   r.Delays.PerceptibleMean,
		ImperceptibleDelay: r.Delays.ImperceptibleMean,
		WallMS:             float64(r.Wall.Microseconds()) / 1000,
	}
}
