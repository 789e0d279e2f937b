// Package trace records the runtime events of a simulation the way the
// paper's instrumentation hooks did ("we inserted several hooks into the
// hardware WakeLock APIs, as well as AlarmManager, in the Android
// framework to log every alarm's time attributes and hardware usage at
// runtime", §4.1). Traces can be exported as CSV or JSON for offline
// analysis and replayed through any consumer.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/alarm"
	"repro/internal/hw"
	"repro/internal/simclock"
)

// EventKind classifies trace events.
type EventKind uint8

const (
	// EventDelivery is an alarm delivery.
	EventDelivery EventKind = iota
	// EventComponentOn is a hardware component powering on.
	EventComponentOn
	// EventComponentOff is a hardware component powering off.
	EventComponentOff
	// EventTaskStart is a tagged task acquiring its wakelocks.
	EventTaskStart
	// EventTaskEnd is a tagged task releasing its wakelocks.
	EventTaskEnd
	// EventFault is an injected fault taking effect (or a runtime
	// contract violation absorbed under an active fault plan).
	EventFault
)

func (k EventKind) String() string {
	switch k {
	case EventDelivery:
		return "delivery"
	case EventComponentOn:
		return "on"
	case EventComponentOff:
		return "off"
	case EventTaskStart:
		return "task-start"
	case EventTaskEnd:
		return "task-end"
	case EventFault:
		return "fault"
	}
	return fmt.Sprintf("EventKind(%d)", uint8(k))
}

// Event is one logged runtime event.
type Event struct {
	At   simclock.Time `json:"at_ms"`
	Kind EventKind     `json:"kind"`
	// Component is set for on/off events.
	Component hw.Component `json:"component,omitempty"`
	// Delivery is set for delivery events.
	Delivery *alarm.Record `json:"delivery,omitempty"`
	// Tag and Set are set for task events: the wakelock tag (owning app)
	// and the component set the task holds. Fault events reuse Tag for
	// the app the fault is attributed to.
	Tag string `json:"tag,omitempty"`
	Set hw.Set `json:"set,omitempty"`
	// Detail describes a fault event ("<kind>: <description>").
	Detail string `json:"detail,omitempty"`
}

// Logger accumulates events. Subscribe it to a wakelock manager
// (hw.TransitionListener) and install Record as the manager's record
// sink (possibly chained with the metrics collector).
type Logger struct {
	clock  *simclock.Clock
	events []Event
}

// NewLoggerSized returns a logger stamping events with the given clock,
// its event buffer preallocated for capacity events. Callers that can
// bound the event count from the workload (the simulation layer
// estimates deliveries per hour) avoid every growth reallocation in the
// logging hot path; a capacity <= 0 preallocates nothing.
func NewLoggerSized(clock *simclock.Clock, capacity int) *Logger {
	if clock == nil {
		panic("trace: NewLoggerSized with nil clock")
	}
	l := &Logger{clock: clock}
	if capacity > 0 {
		l.events = make([]Event, 0, capacity)
	}
	return l
}

// ComponentOn implements hw.TransitionListener.
func (l *Logger) ComponentOn(c hw.Component) {
	l.events = append(l.events, Event{At: l.clock.Now(), Kind: EventComponentOn, Component: c})
}

// ComponentOff implements hw.TransitionListener.
func (l *Logger) ComponentOff(c hw.Component) {
	l.events = append(l.events, Event{At: l.clock.Now(), Kind: EventComponentOff, Component: c})
}

// Task logs a task lifecycle transition; it matches the signature of
// device.Device.OnTask.
func (l *Logger) Task(tag string, set hw.Set, start bool) {
	kind := EventTaskEnd
	if start {
		kind = EventTaskStart
	}
	l.events = append(l.events, Event{At: l.clock.Now(), Kind: kind, Tag: tag, Set: set})
}

// Fault logs an injected fault (or an absorbed runtime violation)
// attributed to app; detail should lead with the fault kind.
func (l *Logger) Fault(app, detail string) {
	l.events = append(l.events, Event{At: l.clock.Now(), Kind: EventFault, Tag: app, Detail: detail})
}

// Record logs an alarm delivery.
func (l *Logger) Record(r alarm.Record) {
	r2 := r
	l.events = append(l.events, Event{At: l.clock.Now(), Kind: EventDelivery, Delivery: &r2})
}

// Events returns a copy of the log in chronological order. It is a
// snapshot: mutating the returned slice (or logging more events) does
// not affect the other side. An earlier version returned the internal
// slice, so a caller's sort-by-kind quietly reordered the logger's own
// chronology out from under every later export.
func (l *Logger) Events() []Event {
	return append([]Event(nil), l.events...)
}

// Deliveries extracts just the delivery records.
func (l *Logger) Deliveries() []alarm.Record {
	var out []alarm.Record
	for _, e := range l.events {
		if e.Kind == EventDelivery {
			out = append(out, *e.Delivery)
		}
	}
	return out
}

// WriteCSV exports the log with one row per event.
func (l *Logger) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "time_ms,kind,component,alarm,app,hw,session,delay_norm"); err != nil {
		return err
	}
	for _, e := range l.events {
		var err error
		switch e.Kind {
		case EventDelivery:
			d := e.Delivery
			_, err = fmt.Fprintf(w, "%d,%s,,%s,%s,%s,%d,%.4f\n",
				int64(e.At), e.Kind, d.AlarmID, d.App, d.HW, d.Session, d.NormalizedDelay())
		case EventTaskStart, EventTaskEnd:
			_, err = fmt.Fprintf(w, "%d,%s,,,%s,%s,,\n", int64(e.At), e.Kind, e.Tag, e.Set)
		case EventFault:
			_, err = fmt.Fprintf(w, "%d,%s,,%s,%s,,,\n",
				int64(e.At), e.Kind, strings.ReplaceAll(e.Detail, ",", ";"), e.Tag)
		default:
			_, err = fmt.Fprintf(w, "%d,%s,%s,,,,,\n", int64(e.At), e.Kind, e.Component)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON exports the log as a JSON array.
func (l *Logger) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(l.events)
}

// ReadJSON parses a log previously written with WriteJSON.
func ReadJSON(r io.Reader) ([]Event, error) {
	var events []Event
	if err := json.NewDecoder(r).Decode(&events); err != nil {
		return nil, fmt.Errorf("trace: decode: %w", err)
	}
	return events, nil
}
