// Package anomaly detects no-sleep energy bugs from simulation traces,
// in the spirit of the diagnostic tools the paper surveys (§1): WakeScope
// [3] detects wakelock misuse at runtime; Pathak et al. [6] characterize
// no-sleep bugs where an acquired wakelock is never (or too late)
// released, keeping the device awake and draining the battery
// imperceptibly.
//
// The detector consumes the trace.Logger event stream — exactly the
// hooks the paper inserted into the WakeLock APIs — and reports
// components held beyond a threshold, components never released by the
// end of the run, and the applications whose deliveries plausibly
// acquired them.
package anomaly

import (
	"fmt"
	"sort"

	"repro/internal/hw"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// Kind classifies a finding.
type Kind uint8

const (
	// HeldTooLong: a component stayed powered longer than the threshold
	// in one stretch.
	HeldTooLong Kind = iota
	// NeverReleased: a component was still powered when the run ended.
	NeverReleased
)

func (k Kind) String() string {
	switch k {
	case HeldTooLong:
		return "held-too-long"
	case NeverReleased:
		return "never-released"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Finding is one detected anomaly.
type Finding struct {
	Kind      Kind
	Component hw.Component
	// Since is when the suspicious powered stretch began; Until is when
	// it ended (the run horizon for NeverReleased).
	Since, Until simclock.Time
	// Held is Until − Since.
	Held simclock.Duration
	// Suspects lists the apps whose deliveries acquired the component
	// during the stretch, most recent first.
	Suspects []string
}

// String renders the finding for reports.
func (f Finding) String() string {
	return fmt.Sprintf("%s: %s powered %v (from %v to %v), suspects %v",
		f.Kind, f.Component, f.Held, f.Since, f.Until, f.Suspects)
}

// DefaultThreshold is the longest acceptable single powered stretch:
// far above any legitimate task in the paper's workloads (the longest
// is a ~3.5 s WPS fix plus tail).
const DefaultThreshold = 60 * simclock.Second

// openTask is a tagged task that has started but not yet ended.
type openTask struct {
	tag string
	set hw.Set
}

// Analyze scans the event log (chronological) for no-sleep anomalies
// and returns findings sorted by severity (longest hold first): a
// stretch longer than DefaultThreshold is held too long. horizon is the
// end of the observed run, used to close still-open stretches.
//
// Attribution uses two signals: tagged task events (the wakelock tags
// Android carries) identify owners precisely — a task still holding the
// component when the stretch closes is a primary suspect; delivery
// records give a recency-ordered fallback for untagged traces.
func Analyze(events []trace.Event, horizon simclock.Time) []Finding {
	type open struct {
		since     simclock.Time
		delivered []string
	}
	opens := map[hw.Component]*open{}
	var tasks []openTask
	var findings []Finding
	// faulted collects apps named by fault events (an active
	// fault-injection plan records what it did): a suspect the injector
	// itself incriminates outranks circumstantial ones.
	faulted := map[string]bool{}

	closeStretch := func(c hw.Component, o *open, until simclock.Time, kind Kind) {
		held := until.Sub(o.since)
		if kind == HeldTooLong && held <= DefaultThreshold {
			return
		}
		if kind == NeverReleased && held <= 0 {
			return
		}
		// Primary suspects: open tasks holding the component, latest
		// start first.
		var primary []string
		for i := len(tasks) - 1; i >= 0; i-- {
			if tasks[i].set.Contains(c) && tasks[i].tag != "" {
				primary = append(primary, tasks[i].tag)
			}
		}
		// Fallback: apps whose deliveries used the component during the
		// stretch, most recent first.
		var fallback []string
		for i := len(o.delivered) - 1; i >= 0; i-- {
			fallback = append(fallback, o.delivered[i])
		}
		suspects := dedupe(append(primary, fallback...))
		if len(faulted) > 0 {
			suspects = promote(suspects, faulted)
		}
		findings = append(findings, Finding{
			Kind: kind, Component: c,
			Since: o.since, Until: until, Held: held,
			Suspects: suspects,
		})
	}

	for _, e := range events {
		switch e.Kind {
		case trace.EventComponentOn:
			if _, ok := opens[e.Component]; !ok {
				opens[e.Component] = &open{since: e.At}
			}
		case trace.EventComponentOff:
			if o, ok := opens[e.Component]; ok {
				closeStretch(e.Component, o, e.At, HeldTooLong)
				delete(opens, e.Component)
			}
		case trace.EventTaskStart:
			tasks = append(tasks, openTask{tag: e.Tag, set: e.Set})
		case trace.EventTaskEnd:
			for i := len(tasks) - 1; i >= 0; i-- {
				if tasks[i].tag == e.Tag && tasks[i].set == e.Set {
					tasks = append(tasks[:i], tasks[i+1:]...)
					break
				}
			}
		case trace.EventDelivery:
			if e.Delivery == nil {
				continue
			}
			for _, c := range e.Delivery.HW.Components() {
				if o, ok := opens[c]; ok {
					o.delivered = append(o.delivered, e.Delivery.App)
				}
			}
		case trace.EventFault:
			if e.Tag != "" {
				faulted[e.Tag] = true
			}
		}
	}
	for c, o := range opens {
		closeStretch(c, o, horizon, NeverReleased)
	}
	sort.Slice(findings, func(i, j int) bool {
		if findings[i].Held != findings[j].Held {
			return findings[i].Held > findings[j].Held
		}
		return findings[i].Component < findings[j].Component
	})
	return findings
}

// promote stably partitions suspects so apps the fault injector named
// come first; relative order within each half is preserved.
func promote(suspects []string, faulted map[string]bool) []string {
	var first, rest []string
	for _, s := range suspects {
		if faulted[s] {
			first = append(first, s)
		} else {
			rest = append(rest, s)
		}
	}
	return append(first, rest...)
}

func dedupe(xs []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}
