package alarm

import (
	"fmt"
	"strings"

	"repro/internal/hw"
	"repro/internal/simclock"
)

// Entry is one queue entry: a batch of alarms that will be delivered
// together. Its five attributes follow §3.2.1 exactly: the window (resp.
// grace) interval is the overlap of the members' window (resp. grace)
// intervals; the hardware set is the union of the members' sets; the
// entry is perceptible if any member is; and the delivery time is the
// earliest point of the window (perceptible) or grace (imperceptible)
// interval.
type Entry struct {
	Alarms []*Alarm

	// WinStart/WinEnd is the intersection of member window intervals.
	// Empty intersections (possible for imperceptible entries aligned on
	// grace overlap) are represented by WinEnd < WinStart.
	WinStart, WinEnd simclock.Time
	// GraceStart/GraceEnd is the intersection of member grace intervals.
	GraceStart, GraceEnd simclock.Time
	// HW is the union of the members' known hardware sets.
	HW hw.Set
	// Perceptible reports whether any member is perceptible.
	Perceptible bool
	// Offset shifts the delivery time of an imperceptible entry (set by
	// Queue.Insert when the policy implements Offsetter; zero otherwise).
	// Perceptible entries ignore it: their window guarantees are hard.
	Offset simclock.Duration

	// exact caches whether any member is an exact alarm (zero window),
	// so policies can test it per entry without rescanning members.
	exact bool
}

// newEntry creates a single-alarm entry.
func newEntry(a *Alarm) *Entry {
	e := &Entry{}
	e.add(a)
	return e
}

// add inserts an alarm, updating the entry attributes incrementally.
func (e *Entry) add(a *Alarm) {
	if len(e.Alarms) == 0 {
		e.WinStart, e.WinEnd = a.Nominal, a.WindowEnd()
		e.GraceStart, e.GraceEnd = a.Nominal, a.GraceEnd()
		e.HW = a.HW
		e.Perceptible = a.Perceptible()
		e.exact = a.Window == 0
		e.Alarms = append(e.Alarms, a)
		return
	}
	e.Alarms = append(e.Alarms, a)
	e.WinStart = maxTime(e.WinStart, a.Nominal)
	e.WinEnd = minTime(e.WinEnd, a.WindowEnd())
	e.GraceStart = maxTime(e.GraceStart, a.Nominal)
	e.GraceEnd = minTime(e.GraceEnd, a.GraceEnd())
	e.HW = e.HW.Union(a.HW)
	e.Perceptible = e.Perceptible || a.Perceptible()
	e.exact = e.exact || a.Window == 0
}

// recompute rebuilds the attributes from the member list (used after a
// removal). It re-adds the members in place: add appends at an index no
// later than the one being read, so the rebuild reuses the slice.
func (e *Entry) recompute() {
	alarms := e.Alarms
	e.Alarms = alarms[:0]
	for _, a := range alarms {
		e.add(a)
	}
}

// find returns the index of the member with the given ID, or -1.
func (e *Entry) find(id string) int {
	for i, a := range e.Alarms {
		if a.ID == id {
			return i
		}
	}
	return -1
}

// remove deletes the alarm with the given ID from the entry, reporting
// whether it was present. Attributes are rebuilt.
func (e *Entry) remove(id string) bool {
	i := e.find(id)
	if i < 0 {
		return false
	}
	e.Alarms = append(e.Alarms[:i], e.Alarms[i+1:]...)
	e.recompute()
	return true
}

// DeliveryTime is when the entry will be delivered: the earliest point of
// its window interval if perceptible, of its grace interval otherwise.
// Since every member's window and grace intervals both start at its
// nominal time, both candidates equal the latest member nominal; the
// distinction matters for the interval *ends* used in applicability
// checks.
func (e *Entry) DeliveryTime() simclock.Time {
	if e.Perceptible {
		return e.WinStart
	}
	if e.Offset > 0 {
		return e.GraceStart.Add(e.Offset)
	}
	return e.GraceStart
}

// WindowOverlaps reports whether the entry's window interval overlaps the
// closed interval [start, end]. An empty entry window never overlaps.
func (e *Entry) WindowOverlaps(start, end simclock.Time) bool {
	if e.WinEnd < e.WinStart {
		return false
	}
	return e.WinStart <= end && start <= e.WinEnd
}

// GraceOverlaps reports whether the entry's grace interval overlaps the
// closed interval [start, end].
func (e *Entry) GraceOverlaps(start, end simclock.Time) bool {
	if e.GraceEnd < e.GraceStart {
		return false
	}
	return e.GraceStart <= end && start <= e.GraceEnd
}

// Len reports the number of member alarms.
func (e *Entry) Len() int { return len(e.Alarms) }

// HasExact reports whether any member is an exact alarm (zero window).
// Android treats exact alarms as standalone: under the native policy they
// neither join batches nor accept other alarms. Similarity-based policies
// ignore this flag — postponing exact-but-imperceptible alarms within
// their grace interval is the whole point of the paper. The value is
// maintained incrementally with the other entry attributes: the native
// policy tests it on every entry of every Select scan, and rescanning
// members there made inserts O(total alarms) instead of O(entries).
func (e *Entry) HasExact() bool { return e.exact }

// String summarizes the entry.
func (e *Entry) String() string {
	ids := make([]string, len(e.Alarms))
	for i, a := range e.Alarms {
		ids[i] = a.ID
	}
	p := "imperceptible"
	if e.Perceptible {
		p = "perceptible"
	}
	return fmt.Sprintf("entry[%s] win=[%v,%v] grace=[%v,%v] hw=%v %s",
		strings.Join(ids, ","), e.WinStart, e.WinEnd, e.GraceStart, e.GraceEnd, e.HW, p)
}

func minTime(a, b simclock.Time) simclock.Time {
	if a < b {
		return a
	}
	return b
}

func maxTime(a, b simclock.Time) simclock.Time {
	if a > b {
		return a
	}
	return b
}
