// Age-of-Information accumulator (after the AoI literature the roadmap
// cites): for each app, the age of its data grows linearly from the
// moment of a delivery until the next delivery resets it to zero. The
// time-average age over a horizon is the integral of the sawtooth
// divided by the horizon — computed exactly from delivery instants, one
// record at a time, so the streaming (NoTrace) path and any batch
// recomputation are bit-identical by construction.
package metrics

import (
	"sort"

	"repro/internal/alarm"
	"repro/internal/simclock"
)

// AoIStats is the fleet-foldable summary of a run's information ages.
type AoIStats struct {
	// MeanAgeSec is the time-average age in seconds, averaged across
	// apps (each app's sawtooth integral over the horizon, then the
	// per-app means averaged uniformly).
	MeanAgeSec float64
	// PeakAgeSec is the largest instantaneous age any app reached —
	// the worst staleness a user could have observed.
	PeakAgeSec float64
	// Apps is how many apps contributed at least one delivery.
	Apps int
}

// AoIAcc streams per-app information age from delivery records. Age for
// an app starts growing at time zero (the device boots with no data)
// and resets on each of the app's deliveries. Records must arrive in
// delivery order, which the simulator guarantees.
type AoIAcc struct {
	last map[string]appAge
	// names is Stats' buffer of sorted app names.
	names []string
}

type appAge struct {
	at       simclock.Time // last delivery instant
	integral float64       // ∫ age dt so far, in seconds²
	peak     float64       // max instantaneous age, seconds
}

// NewAoIAcc returns an empty accumulator.
func NewAoIAcc() *AoIAcc {
	a := new(AoIAcc)
	a.Reset()
	return a
}

// Reset empties the accumulator, keeping its map's buckets for the next
// run. The zero AoIAcc must be Reset before use.
func (a *AoIAcc) Reset() {
	if a.last == nil {
		a.last = map[string]appAge{}
	}
	clear(a.last)
}

// Add folds one delivery into the accumulator. The closed sawtooth
// segment contributes gap²/2 to the app's age integral (age ramps 0 →
// gap over the segment), and the age at the delivery instant is the
// segment's peak.
func (a *AoIAcc) Add(r alarm.Record) {
	s := a.last[r.App]
	gap := r.Delivered.Sub(s.at).Seconds() // first segment starts at t=0
	if gap < 0 {
		gap = 0
	}
	s.integral += gap * gap / 2
	if gap > s.peak {
		s.peak = gap
	}
	s.at = r.Delivered
	a.last[r.App] = s
}

// AgeAt reports app's instantaneous age at time t ≥ its last delivery
// (the exposed sawtooth, used by the property layer).
func (a *AoIAcc) AgeAt(app string, t simclock.Time) float64 {
	s, ok := a.last[app]
	if !ok {
		return t.Sub(simclock.Time(0)).Seconds()
	}
	return t.Sub(s.at).Seconds()
}

// Stats finalizes the run: each app's open tail segment (last delivery
// → horizon end) is closed, integrals become time-averages, and the
// per-app means are averaged. Apps with no deliveries don't exist in
// the accumulator and are excluded — their age would be the whole
// horizon and says nothing about the policy. Iteration is over sorted
// app names so the result is deterministic.
func (a *AoIAcc) Stats(end simclock.Time) AoIStats {
	names := a.names[:0]
	for app := range a.last {
		names = append(names, app)
	}
	sort.Strings(names)
	a.names = names
	var out AoIStats
	horizon := end.Sub(simclock.Time(0)).Seconds()
	if horizon <= 0 {
		return out
	}
	var sum float64
	for _, app := range names {
		s := a.last[app]
		tail := end.Sub(s.at).Seconds()
		if tail < 0 {
			tail = 0
		}
		integral := s.integral + tail*tail/2
		peak := s.peak
		if tail > peak {
			peak = tail
		}
		sum += integral / horizon
		if peak > out.PeakAgeSec {
			out.PeakAgeSec = peak
		}
		out.Apps++
	}
	if out.Apps > 0 {
		out.MeanAgeSec = sum / float64(out.Apps)
	}
	return out
}

// AoI computes the statistics over a record slice (the batch facade,
// for tests and retained-trace callers).
func AoI(recs []alarm.Record, end simclock.Time) AoIStats {
	a := NewAoIAcc()
	for _, r := range recs {
		a.Add(r)
	}
	return a.Stats(end)
}
