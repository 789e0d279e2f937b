package sim

import (
	"fmt"

	"repro/internal/power"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// DrainResult is the outcome of a run-to-empty simulation.
type DrainResult struct {
	PolicyName string
	// StandbyHours is the measured time from full battery to empty.
	StandbyHours float64
	// Curve samples the state of charge hourly.
	Curve []power.SoCPoint
	// Wakeups counts device wakeups over the whole discharge.
	Wakeups int
	// Pushes counts the external (GCM-style) wakeups that arrived
	// before the battery died.
	Pushes int
	// End is the virtual time at which the battery emptied (hour
	// granularity; StandbyHours interpolates within the final hour).
	End simclock.Time
	// Trace is the event log when Config.CollectTrace is set; it covers
	// the entire discharge, so expect it to be large.
	Trace *trace.Logger
}

// maxDrainHorizon caps run-to-empty simulations (a device idling at the
// pure sleep floor lasts ~350 h; anything beyond 1000 h is a modelling
// error).
const maxDrainHorizon = 1000 * simclock.Duration(simclock.Hour)

// RunToEmpty simulates connected standby from a full battery until it is
// exhausted, measuring standby time directly instead of projecting it
// from a short run. Config.Duration bounds the window over which
// one-shot alarms are scheduled (defaulting as in Run); the simulation
// itself — including the push and screen-session processes — continues
// until the battery dies.
func RunToEmpty(cfg Config) (*DrainResult, error) {
	env := getEnv()
	res, err := env.drain(cfg)
	if err != nil {
		return nil, err
	}
	env.release()
	return res, nil
}

// drain rebuilds env for cfg and simulates it until the battery is empty.
func (env *runEnv) drain(cfg Config) (*DrainResult, error) {
	if err := env.reset(cfg, maxDrainHorizon); err != nil {
		return nil, err
	}

	battery := power.NewBattery(env.profile.BatteryMJ)
	res := &DrainResult{PolicyName: env.pol.Name()}
	prevTotal := 0.0
	step := simclock.Duration(simclock.Hour)
	for t := step; t <= maxDrainHorizon; t += step {
		env.clock.Run(simclock.Time(t))
		b := env.dev.Accountant().Snapshot()
		battery.Drain(b.TotalMJ() - prevTotal)
		prevTotal = b.TotalMJ()
		res.Curve = append(res.Curve, power.SoCPoint{At: env.clock.Now(), SoC: battery.SoC()})
		if battery.Empty() {
			// Interpolate within the last step for sub-hour precision.
			over := b.TotalMJ() - battery.CapacityMJ()
			stepMJ := b.TotalMJ() - totalAt(res.Curve, len(res.Curve)-2, battery.CapacityMJ())
			frac := 0.0
			if stepMJ > 0 {
				frac = over / stepMJ
			}
			res.StandbyHours = float64(t)/float64(simclock.Hour) - frac
			res.Wakeups = env.dev.Wakeups()
			res.Pushes = env.pushes
			res.End = env.clock.Now()
			res.Trace = env.logger
			return res, nil
		}
	}
	return nil, fmt.Errorf("sim: battery not empty after %v — power model degenerate", maxDrainHorizon)
}

// totalAt recovers the cumulative drain at curve index i (capacity ×
// (1−SoC)); used only for the final interpolation.
func totalAt(curve []power.SoCPoint, i int, capacity float64) float64 {
	if i < 0 {
		return 0
	}
	return (1 - curve[i].SoC) * capacity
}
