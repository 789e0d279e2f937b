package hw

import "fmt"

// TransitionListener observes component on/off transitions. The power
// accountant implements it to integrate per-component energy, and the
// trace logger implements it to reproduce the paper's WakeLock API hooks.
type TransitionListener interface {
	// ComponentOn is called when a component's wakelock refcount rises
	// from zero.
	ComponentOn(c Component)
	// ComponentOff is called when a component's wakelock refcount falls
	// back to zero.
	ComponentOff(c Component)
}

// WakelockManager tracks reference-counted wakelocks on hardware
// components, mirroring Android's per-component WakeLock behaviour: a
// component is powered while at least one holder has it acquired, and
// activation overhead is paid only on the 0→1 transition. Alignment saves
// energy precisely because concurrent holders of the same component share
// one activation and one powered interval.
type WakelockManager struct {
	counts    [NumComponents]int
	listeners []TransitionListener
	violation func(c Component, detail string)
}

// SetViolationHandler routes refcounting violations (releasing an
// unheld component) to fn instead of panicking: the graceful-degradation
// mode used while a fault plan is active, where a misbehaving simulated
// app must become a recorded fault event rather than a crashed run.
// A nil fn restores the default panic-on-violation contract, under
// which a violation is a library-internal bug.
func (m *WakelockManager) SetViolationHandler(fn func(c Component, detail string)) {
	m.violation = fn
}

// Reset releases every wakelock without notifying anyone and drops the
// listeners and the violation handler, returning the manager to its zero
// state while keeping the listener array for reuse. The zero
// WakelockManager is empty and ready to use.
func (m *WakelockManager) Reset() {
	m.counts = [NumComponents]int{}
	clear(m.listeners)
	m.listeners = m.listeners[:0]
	m.violation = nil
}

// Subscribe registers a listener for subsequent transitions.
func (m *WakelockManager) Subscribe(l TransitionListener) {
	if l == nil {
		panic("hw: subscribe nil listener")
	}
	m.listeners = append(m.listeners, l)
}

// Acquire takes one wakelock reference on every component in s.
func (m *WakelockManager) Acquire(s Set) {
	for _, c := range s.Components() {
		m.counts[c]++
		if m.counts[c] == 1 {
			for _, l := range m.listeners {
				l.ComponentOn(c)
			}
		}
	}
}

// Release drops one wakelock reference on every component in s. Releasing
// a component that has no holders is a refcounting bug: it panics, unless
// a violation handler is installed, in which case the release of that
// component is dropped and reported.
func (m *WakelockManager) Release(s Set) {
	for _, c := range s.Components() {
		if m.counts[c] == 0 {
			if m.violation != nil {
				m.violation(c, fmt.Sprintf("release of unheld component %v", c))
				continue
			}
			panic(fmt.Sprintf("hw: release of unheld component %v", c))
		}
		m.counts[c]--
		if m.counts[c] == 0 {
			for _, l := range m.listeners {
				l.ComponentOff(c)
			}
		}
	}
}

// Holders reports the current refcount of component c.
func (m *WakelockManager) Holders(c Component) int { return m.counts[c] }
