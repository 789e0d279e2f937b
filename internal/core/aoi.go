package core

import (
	"repro/internal/alarm"
	"repro/internal/simclock"
)

// DefaultFreshFactor is AOI's staleness budget as a fraction of each
// alarm's repeating interval: a delivery may lag its nominal time by at
// most half a period (or the full window, if wider). Half a period is
// where the AoI sawtooth's time-average stops being dominated by
// batching-induced lag, while still leaving SIMTY enough slack to merge
// same-period schedules.
const DefaultFreshFactor = 0.5

// AoIAware is the Age-of-Information-aware controller from the
// roadmap's arXiv 2505.16073 direction: SIMTY's similarity-based
// batching, constrained by a per-alarm freshness cap. SIMTY bounds each
// delivery only by the grace interval (β ≈ 0.96 of a period), so a
// batched alarm's data can run almost a full period stale; AOI rejects
// any batch whose joined delivery instant would lag *any* member's
// nominal time by more than the cap, keeping the age sawtooth short at
// the price of smaller batches. Perceptible alarms are exempt — their
// window guarantee is already tighter than any cap.
type AoIAware struct {
	// Inner supplies search and ranking (SIMTY).
	Inner *Simty
}

// NewAoIAware returns the AOI policy.
func NewAoIAware() *AoIAware { return &AoIAware{Inner: NewSimty()} }

// Name implements alarm.Policy.
func (p *AoIAware) Name() string { return "AOI" }

// Reset leaves the policy as the registry builds it for a run (see
// alarm.Factory): AOI keeps no per-run state.
func (p *AoIAware) Reset(alarm.PolicyContext) {}

// Select implements alarm.Policy: the most preferable applicable entry
// that also keeps every member inside its freshness cap.
func (p *AoIAware) Select(entries []*alarm.Entry, a *alarm.Alarm, _ simclock.Time) int {
	best, bestRank := -1, Inapplicable
	for i, e := range entries {
		r := p.Inner.rank(a, e)
		if r >= bestRank {
			continue
		}
		if !p.freshOK(e, a) {
			continue
		}
		best, bestRank = i, r
	}
	return best
}

// freshOK reports whether delivering the joined entry at its new grace
// start would keep a and every current member within their caps.
func (p *AoIAware) freshOK(e *alarm.Entry, a *alarm.Alarm) bool {
	newStart := e.GraceStart
	if a.Nominal > newStart {
		newStart = a.Nominal
	}
	if !p.fresh(a, newStart) {
		return false
	}
	for _, m := range e.Alarms {
		if !p.fresh(m, newStart) {
			return false
		}
	}
	return true
}

// fresh reports whether delivering m at instant at respects m's cap:
// max(window, DefaultFreshFactor × period) past its nominal time.
func (p *AoIAware) fresh(m *alarm.Alarm, at simclock.Time) bool {
	if m.Perceptible() {
		return true
	}
	budget := simclock.Duration(DefaultFreshFactor * float64(m.Period))
	if budget < m.Window {
		budget = m.Window
	}
	return at.Sub(m.Nominal) <= budget
}
