package core

import (
	"repro/internal/alarm"
	"repro/internal/hw"
	"repro/internal/simclock"
)

// HardwareClassifier maps a pair of hardware sets to a preferability
// column (0 = most preferable) out of Columns() total. It generalizes the
// paper's three-level classification so the sketched two- and four-level
// variants (§3.1.1) plug into the same selection machinery.
type HardwareClassifier interface {
	// Name identifies the classifier in reports.
	Name() string
	// Columns is the number of preferability columns.
	Columns() int
	// Column classifies the pair; 0 is the most preferable column.
	Column(a, b hw.Set) int
}

// ThreeLevel is the paper's classification: identical & non-empty /
// partially identical / otherwise.
type ThreeLevel struct{}

// Name implements HardwareClassifier.
func (ThreeLevel) Name() string { return "hw3" }

// Columns implements HardwareClassifier.
func (ThreeLevel) Columns() int { return 3 }

// Column implements HardwareClassifier.
func (ThreeLevel) Column(a, b hw.Set) int {
	switch HardwareSimilarity(a, b) {
	case High:
		return 0
	case Medium:
		return 1
	default:
		return 2
	}
}

// TwoLevel distinguishes only whether the two alarms wakelock any
// identical component (§3.1.1's simpler variant).
type TwoLevel struct{}

// Name implements HardwareClassifier.
func (TwoLevel) Name() string { return "hw2" }

// Columns implements HardwareClassifier.
func (TwoLevel) Columns() int { return 2 }

// Column implements HardwareClassifier.
func (TwoLevel) Column(a, b hw.Set) int {
	if a.Intersects(b) {
		return 0
	}
	return 1
}

// FourLevel splits the medium level in two depending on whether the
// shared components are energy hungry (§3.1.1's finer variant).
type FourLevel struct{}

// Name implements HardwareClassifier.
func (FourLevel) Name() string { return "hw4" }

// Columns implements HardwareClassifier.
func (FourLevel) Columns() int { return 4 }

// Column implements HardwareClassifier.
func (FourLevel) Column(a, b hw.Set) int {
	switch HardwareSimilarity(a, b) {
	case High:
		return 0
	case Medium:
		if a.Intersect(b).Intersects(hw.EnergyHungry) {
			return 1
		}
		return 2
	default:
		return 3
	}
}

// Simty is the paper's similarity-based alignment policy (§3.2). Given an
// alarm to insert, the search phase collects the applicable entries
// (Applicable), and the selection phase picks the first entry with the
// best generalized Table 1 rank: hardware column first, time similarity
// as tie-break.
type Simty struct {
	// HW is the hardware classifier; nil means the paper's ThreeLevel.
	HW HardwareClassifier
}

// NewSimty returns the paper's SIMTY policy with three-level hardware
// similarity.
func NewSimty() *Simty { return &Simty{HW: ThreeLevel{}} }

// Name implements alarm.Policy: SIMTY with the paper's classifier, and
// the registered SIMTY-hw2 and SIMTY-hw4 names with the other two, so
// that naming a run builds no string.
func (s *Simty) Name() string {
	switch c := s.classifier().Name(); c {
	case "hw3":
		return "SIMTY"
	case "hw2":
		return "SIMTY-hw2"
	case "hw4":
		return "SIMTY-hw4"
	default:
		return "SIMTY-" + c
	}
}

// Reset leaves the policy as the registry builds it for a run (see
// alarm.Factory): SIMTY keeps no per-run state, and its classifier does
// not depend on the run.
func (s *Simty) Reset(alarm.PolicyContext) {}

func (s *Simty) classifier() HardwareClassifier {
	if s.HW == nil {
		return ThreeLevel{}
	}
	return s.HW
}

// rank computes the generalized Table 1 preferability for the alarm
// against an entry, or Inapplicable.
func (s *Simty) rank(a *alarm.Alarm, e *alarm.Entry) int {
	ts := TimeSimilarity(a, e)
	if ts == Low {
		return Inapplicable
	}
	if (a.Perceptible() || e.Perceptible) && ts != High {
		return Inapplicable
	}
	row := 0
	if ts == Medium {
		row = 1
	}
	col := s.classifier().Column(a.HW, e.HW)
	return 1 + col*2 + row
}

// Select implements alarm.Policy: the first found, most preferable
// applicable entry, or -1 to create a new entry (§3.2.1).
func (s *Simty) Select(entries []*alarm.Entry, a *alarm.Alarm, _ simclock.Time) int {
	best, bestRank := -1, Inapplicable
	for i, e := range entries {
		if r := s.rank(a, e); r < bestRank {
			best, bestRank = i, r
		}
	}
	return best
}
