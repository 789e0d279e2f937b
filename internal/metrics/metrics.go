// Package metrics derives the paper's evaluation quantities from alarm
// delivery records: the normalized delivery delay split by perceptibility
// (Figure 4), the per-hardware wakeup breakdown against the no-alignment
// expectation (Table 4), and the adjacent-delivery interval statistics
// behind the §3.2.2 periodicity properties.
package metrics

import (
	"fmt"
	"sort"

	"repro/internal/alarm"
	"repro/internal/hw"
	"repro/internal/simclock"
)

// DelayStats summarizes normalized delivery delays (§4.1): an alarm's
// normalized delay is 0 if delivered within its window interval, else the
// delay behind the window end divided by its repeating interval.
type DelayStats struct {
	PerceptibleMean   float64
	ImperceptibleMean float64
	PerceptibleMax    float64
	ImperceptibleMax  float64
	PerceptibleN      int
	ImperceptibleN    int
}

// DelayAcc streams DelayStats one record at a time. It is the arithmetic
// behind Delays: the batch function folds through an accumulator, so the
// streaming path (sim's NoTrace fast mode, which never retains records)
// and the batch path produce bit-identical statistics by construction.
type DelayAcc struct {
	s          DelayStats
	pSum, iSum float64
}

// Add folds one delivery into the accumulator.
func (a *DelayAcc) Add(r alarm.Record) {
	d := r.NormalizedDelay()
	if r.Perceptible {
		a.pSum += d
		a.s.PerceptibleN++
		if d > a.s.PerceptibleMax {
			a.s.PerceptibleMax = d
		}
	} else {
		a.iSum += d
		a.s.ImperceptibleN++
		if d > a.s.ImperceptibleMax {
			a.s.ImperceptibleMax = d
		}
	}
}

// Stats finalizes the means and returns the statistics so far.
func (a *DelayAcc) Stats() DelayStats {
	s := a.s
	if s.PerceptibleN > 0 {
		s.PerceptibleMean = a.pSum / float64(s.PerceptibleN)
	}
	if s.ImperceptibleN > 0 {
		s.ImperceptibleMean = a.iSum / float64(s.ImperceptibleN)
	}
	return s
}

// Delays computes delay statistics over the records, grouping by the
// delivery's observed perceptibility.
func Delays(recs []alarm.Record) DelayStats {
	var a DelayAcc
	for _, r := range recs {
		a.Add(r)
	}
	return a.Stats()
}

// Row is one line of the Table 4 wakeup breakdown: Wakeups is the number
// of physical wakeups in which an alarm acquiring the hardware was
// delivered; Expected is the number of wakeups had no alignment been
// applied (one per delivery).
type Row struct {
	Wakeups  int
	Expected int
}

// Ratio is Wakeups/Expected; 0 when nothing was expected (or when a
// hand-built row carries a nonsensical negative expectation). Smaller
// means more effective alignment.
func (r Row) Ratio() float64 {
	if r.Expected <= 0 {
		return 0
	}
	return float64(r.Wakeups) / float64(r.Expected)
}

// String renders the row the way Table 4 prints entries.
func (r Row) String() string { return fmt.Sprintf("%d/%d", r.Wakeups, r.Expected) }

// Breakdown is the full Table 4: the CPU row counts every delivery
// (including one-shot and system alarms, which wakelock nothing); the
// per-component rows count only deliveries that acquired that component.
type Breakdown struct {
	CPU       Row
	Component [hw.NumComponents]Row
}

// WakeupAcc streams the Table 4 breakdown. Wakeups is the batch facade
// over it, so the streaming (NoTrace) and batch paths cannot diverge.
// Records must arrive in delivery order, which the simulator guarantees:
// session numbers then never decrease, so each row counts its distinct
// sessions by remembering the last one it saw instead of keeping a set.
type WakeupAcc struct {
	b        Breakdown
	cpuLast  int
	compLast [hw.NumComponents]int
}

// NewWakeupAcc returns an empty accumulator.
func NewWakeupAcc() *WakeupAcc { return &WakeupAcc{} }

// Add folds one delivery into the accumulator.
func (a *WakeupAcc) Add(r alarm.Record) {
	countSession(&a.b.CPU, &a.cpuLast, r.Session)
	for _, c := range r.HW.Components() {
		countSession(&a.b.Component[c], &a.compLast[c], r.Session)
	}
}

// countSession folds one delivery made in session into row, whose last
// counted session is *last: Expected always grows, Wakeups only when the
// session is new to the row.
func countSession(row *Row, last *int, session int) {
	if row.Expected == 0 || session != *last {
		row.Wakeups++
		*last = session
	}
	row.Expected++
}

// Breakdown returns the breakdown accumulated so far.
func (a *WakeupAcc) Breakdown() Breakdown { return a.b }

// Wakeups computes the breakdown over records in delivery order. A
// "wakeup" for a row is a distinct awake session among the matching
// deliveries, so alarms batched into one session count once.
func Wakeups(recs []alarm.Record) Breakdown {
	a := NewWakeupAcc()
	for _, r := range recs {
		a.Add(r)
	}
	return a.Breakdown()
}

// SpkVibAcc streams the merged Speaker&Vibrator row. SpeakerVibrator is
// the batch facade over it. Like WakeupAcc, it needs records in delivery
// order.
type SpkVibAcc struct {
	row  Row
	last int
}

// NewSpkVibAcc returns an empty accumulator.
func NewSpkVibAcc() *SpkVibAcc { return &SpkVibAcc{} }

// Add folds one delivery into the accumulator.
func (a *SpkVibAcc) Add(r alarm.Record) {
	if r.HW.Intersects(hw.MakeSet(hw.Speaker, hw.Vibrator)) {
		countSession(&a.row, &a.last, r.Session)
	}
}

// Row returns the merged row accumulated so far.
func (a *SpkVibAcc) Row() Row { return a.row }

// SpeakerVibrator merges the speaker and vibrator rows the way Table 4
// reports them ("Speaker&Vibrator") over records in delivery order.
// Sessions delivering either count once, so the merged row is computed
// from records, not by adding rows.
func SpeakerVibrator(recs []alarm.Record) Row {
	a := NewSpkVibAcc()
	for _, r := range recs {
		a.Add(r)
	}
	return a.Row()
}

// Guarantees counts the paper's delivery guarantees over a run: how many
// perceptible deliveries slipped past their window end (the headline "a
// perceptible alarm is never postponed" invariant), how many
// imperceptible deliveries slipped past their grace end, and the largest
// normalized perceptible delay observed. The fleet layer folds these
// per-run counters instead of re-scanning records, which is what lets
// the NoTrace fast mode drop the records entirely without changing a
// fleet summary byte.
type Guarantees struct {
	// PerceptibleLate counts perceptible deliveries past their window end.
	PerceptibleLate int
	// GraceLate counts imperceptible deliveries past their grace end.
	GraceLate int
	// MaxPerceptibleDelay is the largest normalized perceptible delay.
	MaxPerceptibleDelay float64
}

// GuaranteeAcc streams Guarantees one record at a time.
type GuaranteeAcc struct {
	g Guarantees
}

// Add folds one delivery into the accumulator.
func (a *GuaranteeAcc) Add(r alarm.Record) {
	if r.Perceptible {
		if r.Delivered > r.WindowEnd {
			a.g.PerceptibleLate++
		}
		if d := r.NormalizedDelay(); d > a.g.MaxPerceptibleDelay {
			a.g.MaxPerceptibleDelay = d
		}
	} else if r.Delivered > r.GraceEnd {
		a.g.GraceLate++
	}
}

// Guarantees returns the counters accumulated so far.
func (a *GuaranteeAcc) Guarantees() Guarantees { return a.g }

// GuaranteesOf computes the guarantee counters over a record slice.
func GuaranteesOf(recs []alarm.Record) Guarantees {
	var a GuaranteeAcc
	for _, r := range recs {
		a.Add(r)
	}
	return a.Guarantees()
}

// LeastWakeups is the paper's lower bound on per-component wakeups: the
// horizon divided by the smallest repeating interval among the *static*
// repeating alarms that wakelock the component (§4.2). Zero if no static
// alarm uses it.
func LeastWakeups(horizon simclock.Duration, periodsByComponent map[hw.Component][]simclock.Duration) map[hw.Component]int {
	out := map[hw.Component]int{}
	for c, ps := range periodsByComponent {
		var minP simclock.Duration
		for _, p := range ps {
			if p > 0 && (minP == 0 || p < minP) {
				minP = p
			}
		}
		if minP > 0 {
			out[c] = int(horizon / minP)
		}
	}
	return out
}

// IntervalStats reports the spacing between adjacent deliveries of one
// alarm, used to verify the §3.2.2 periodicity properties.
type IntervalStats struct {
	N        int
	Min, Max simclock.Duration
	Mean     float64 // seconds
}

// AdjacentIntervals groups records per alarm ID and computes the
// adjacent-delivery interval statistics for each alarm with at least two
// deliveries.
func AdjacentIntervals(recs []alarm.Record) map[string]IntervalStats {
	byAlarm := map[string][]simclock.Time{}
	for _, r := range recs {
		byAlarm[r.AlarmID] = append(byAlarm[r.AlarmID], r.Delivered)
	}
	out := map[string]IntervalStats{}
	for id, times := range byAlarm {
		if len(times) < 2 {
			continue
		}
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		var s IntervalStats
		var sum float64
		for i := 1; i < len(times); i++ {
			gap := times[i].Sub(times[i-1])
			if s.N == 0 || gap < s.Min {
				s.Min = gap
			}
			if gap > s.Max {
				s.Max = gap
			}
			sum += gap.Seconds()
			s.N++
		}
		s.Mean = sum / float64(s.N)
		out[id] = s
	}
	return out
}

// BatchStats summarizes how many alarms each delivered entry carried —
// the direct measure of how aggressively a policy aligns.
type BatchStats struct {
	Batches  int
	MeanSize float64
	MaxSize  int
	// SoloFraction is the share of batches holding a single alarm.
	SoloFraction float64
}

// Batches derives batch statistics from delivery records: records of
// one batch share the manager-assigned EntrySeq.
func Batches(recs []alarm.Record) BatchStats {
	sizes := map[int]int{}
	for _, r := range recs {
		if r.EntrySize > sizes[r.EntrySeq] {
			sizes[r.EntrySeq] = r.EntrySize
		}
	}
	var s BatchStats
	total := 0
	for _, size := range sizes {
		s.Batches++
		total += size
		if size > s.MaxSize {
			s.MaxSize = size
		}
		if size == 1 {
			s.SoloFraction++
		}
	}
	if s.Batches > 0 {
		s.MeanSize = float64(total) / float64(s.Batches)
		s.SoloFraction /= float64(s.Batches)
	}
	return s
}

// CountByApp tallies deliveries per application.
func CountByApp(recs []alarm.Record) map[string]int {
	out := map[string]int{}
	for _, r := range recs {
		out[r.App]++
	}
	return out
}

// GapAcc streams WakeupGaps one record at a time. It relies on two
// invariants the simulator guarantees: records arrive in delivery
// order, and session numbers are assigned monotonically — so the first
// record carrying a new session number marks that session's start.
type GapAcc struct {
	started   bool
	session   int
	prevStart simclock.Time
	stats     IntervalStats
	sum       float64
}

// Add folds one delivery record into the accumulator.
func (g *GapAcc) Add(r alarm.Record) {
	if g.started && r.Session == g.session {
		return
	}
	if g.started {
		gap := r.Delivered.Sub(g.prevStart)
		if g.stats.N == 0 || gap < g.stats.Min {
			g.stats.Min = gap
		}
		if gap > g.stats.Max {
			g.stats.Max = gap
		}
		g.sum += gap.Seconds()
		g.stats.N++
	}
	g.started = true
	g.session = r.Session
	g.prevStart = r.Delivered
}

// Stats reports the gap distribution accumulated so far.
func (g *GapAcc) Stats() IntervalStats {
	s := g.stats
	if s.N > 0 {
		s.Mean = g.sum / float64(s.N)
	}
	return s
}

// WakeupGaps reports the distribution of time between consecutive
// physical wakeups that delivered alarms — the user-facing "how often
// does my phone wake" quantity. Gaps are measured between the first
// delivery instants of consecutive sessions.
func WakeupGaps(recs []alarm.Record) IntervalStats {
	first := map[int]simclock.Time{}
	for _, r := range recs {
		if t, ok := first[r.Session]; !ok || r.Delivered < t {
			first[r.Session] = r.Delivered
		}
	}
	times := make([]simclock.Time, 0, len(first))
	for _, t := range first {
		times = append(times, t)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	var s IntervalStats
	var sum float64
	for i := 1; i < len(times); i++ {
		gap := times[i].Sub(times[i-1])
		if s.N == 0 || gap < s.Min {
			s.Min = gap
		}
		if gap > s.Max {
			s.Max = gap
		}
		sum += gap.Seconds()
		s.N++
	}
	if s.N > 0 {
		s.Mean = sum / float64(s.N)
	}
	return s
}
