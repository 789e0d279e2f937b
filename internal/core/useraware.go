package core

import (
	"repro/internal/alarm"
	"repro/internal/simclock"
)

// DefaultNightExtend is how far SIMTY-U may widen an imperceptible
// alarm's grace interval while the user is inactive: large against the
// workload periods (so overnight schedules actually coalesce) but small
// against an inactive phase (so staleness stays bounded and deliveries
// cannot drift toward the next morning).
const DefaultNightExtend = 30 * simclock.Minute

// UserAware is the screen-session/diurnal-context policy the roadmap's
// arXiv 2101.08885 direction sketches: during active phases it is
// exactly the inner SIMTY (prompt grace-bounded delivery while the user
// is looking), and while the user is inactive it widens every
// imperceptible alarm's grace interval by up to DefaultNightExtend —
// entries that SIMTY must keep apart for lack of grace overlap may then
// coalesce, trading bounded overnight staleness for fewer night
// wakeups. Perceptible alarms are never widened, in any phase (§3.2.2's
// window guarantee stays hard).
type UserAware struct {
	// Inner makes the baseline batching decisions (SIMTY).
	Inner *Simty
	// Day is the activity oracle; the policy widens only when the
	// prospective delivery instant falls in an inactive phase.
	Day alarm.ActivityOracle
}

// NewUserAware returns SIMTY-U over the given activity oracle.
func NewUserAware(day alarm.ActivityOracle) *UserAware {
	return &UserAware{Inner: NewSimty(), Day: day}
}

// Name implements alarm.Policy.
func (u *UserAware) Name() string { return "SIMTY-U" }

// Reset leaves the policy as the registry builds it for a run (see
// alarm.Factory): on the run's activity oracle.
func (u *UserAware) Reset(ctx alarm.PolicyContext) { u.Day = activityOf(ctx) }

// Select implements alarm.Policy: SIMTY's choice when it finds an
// applicable entry; otherwise, in inactive phases, the best
// hardware-similar entry reachable by widening grace intervals by at
// most DefaultNightExtend. Falling back (rather than re-ranking
// everything) keeps the active-phase behaviour bit-identical to SIMTY.
func (u *UserAware) Select(entries []*alarm.Entry, a *alarm.Alarm, now simclock.Time) int {
	if i := u.Inner.Select(entries, a, now); i >= 0 {
		return i
	}
	if a.Perceptible() || u.Day == nil {
		return -1
	}
	best, bestCol := -1, int(^uint(0)>>1)
	for i, e := range entries {
		if !u.extendable(e, a) {
			continue
		}
		if col := u.Inner.classifier().Column(a.HW, e.HW); col < bestCol {
			best, bestCol = i, col
		}
	}
	return best
}

// extendable reports whether a may join e by grace widening: both
// imperceptible, the joined delivery instant in an inactive phase, and
// every member (and a itself) delivered at most DefaultNightExtend past
// its own grace end. The instant is strictly before the next active
// phase by construction — ActiveAt(newStart) is false — so a widened
// delivery never lands while the user is interacting (the property
// layer pins this invariant).
func (u *UserAware) extendable(e *alarm.Entry, a *alarm.Alarm) bool {
	if e.Perceptible {
		return false
	}
	newStart := e.GraceStart
	if a.Nominal > newStart {
		newStart = a.Nominal
	}
	if u.Day.ActiveAt(newStart) {
		return false
	}
	if newStart > a.GraceEnd().Add(DefaultNightExtend) {
		return false
	}
	for _, m := range e.Alarms {
		if newStart > m.GraceEnd().Add(DefaultNightExtend) {
			return false
		}
	}
	return true
}
