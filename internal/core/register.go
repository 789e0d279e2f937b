package core

import (
	"math/rand"

	"repro/internal/alarm"
	"repro/internal/apps"
	"repro/internal/simclock"
)

// DefaultJitterSpread is the phase-spread window of the SIMTY-J variant:
// each device draws a fixed delivery-time offset uniformly from
// [0, DefaultJitterSpread) and shifts every imperceptible batch by it.
// The value trades backend peak load against data staleness — it must be
// much wider than the backend's arrival buckets to spread a synchronized
// fleet spike, yet small against the workload periods so the energy
// behaviour stays SIMTY's (the herd experiment measures both sides).
const DefaultJitterSpread = 60 * simclock.Second

// JitterPhase returns SIMTY-J's per-device phase: a uniform draw from
// [0, spread) on the dedicated RNG stream seed+7 (streams +0..+6 belong
// to the device, workload, and backend models).
func JitterPhase(seed int64, spread simclock.Duration) simclock.Duration {
	if spread <= 0 {
		return 0
	}
	var phase simclock.Duration
	simclock.Draw(seed+7, func(r *rand.Rand) { phase = simclock.Duration(r.Int63n(int64(spread))) })
	return phase
}

// defaultDay is the canonical day shape SIMTY-U falls back to in
// standalone use (wakesim -policy SIMTY-U without a diurnal workload).
// Nothing writes to it, so every instance shares it.
var defaultDay = apps.DefaultDay()

// activityOf is the activity oracle SIMTY-U runs on under ctx.
func activityOf(ctx alarm.PolicyContext) alarm.ActivityOracle {
	if ctx.Activity == nil {
		return defaultDay
	}
	return ctx.Activity
}

// The SIMTY family registers at package load; internal/sim imports this
// package, so every simulator entry point sees the full table.
func init() {
	alarm.MustRegister("SIMTY", func(alarm.PolicyContext) (alarm.Policy, error) {
		return NewSimty(), nil
	})
	alarm.MustRegister("SIMTY-hw2", func(alarm.PolicyContext) (alarm.Policy, error) {
		return &Simty{HW: TwoLevel{}}, nil
	})
	alarm.MustRegister("SIMTY-hw4", func(alarm.PolicyContext) (alarm.Policy, error) {
		return &Simty{HW: FourLevel{}}, nil
	})
	alarm.MustRegister("SIMTY-DUR", func(alarm.PolicyContext) (alarm.Policy, error) {
		return NewDurationSimty(), nil
	})
	alarm.MustRegister("SIMTY-J", func(ctx alarm.PolicyContext) (alarm.Policy, error) {
		return alarm.Jitter{
			Inner: NewSimty(),
			Phase: JitterPhase(ctx.Seed, DefaultJitterSpread),
		}, nil
	})
	alarm.MustRegister("SIMTY-U", func(ctx alarm.PolicyContext) (alarm.Policy, error) {
		return NewUserAware(activityOf(ctx)), nil
	})
	alarm.MustRegister("AOI", func(alarm.PolicyContext) (alarm.Policy, error) {
		return NewAoIAware(), nil
	})
}
