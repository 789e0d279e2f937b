package alarm

import (
	"fmt"

	"repro/internal/hw"
	"repro/internal/simclock"
)

// Host abstracts the device the alarm manager runs on. internal/device
// provides the real simulation; tests substitute lightweight fakes.
type Host interface {
	// Awake reports whether the device is currently awake.
	Awake() bool
	// ExecuteWake ensures the device is awake — paying the wake
	// transition and latency if it was asleep — and then runs fn.
	ExecuteWake(fn func())
	// OnWake subscribes fn to run every time the device completes a
	// sleep→awake transition (used to flush due non-wakeup alarms).
	OnWake(fn func())
	// Session returns the identifier of the current awake session.
	// Deliveries sharing a session shared one physical wakeup.
	Session() int
}

// Record describes one completed alarm delivery. The metrics package
// derives every evaluation quantity (Figures 3–4, Table 4) from these.
type Record struct {
	AlarmID string
	App     string
	Kind    Kind
	Repeat  Repeat
	// Nominal, WindowEnd and GraceEnd describe the interval attributes
	// of the delivered instance.
	Nominal   simclock.Time
	WindowEnd simclock.Time
	GraceEnd  simclock.Time
	Period    simclock.Duration
	// Delivered is when the alarm actually fired (after wake latency).
	Delivered simclock.Time
	// HW is the hardware set the delivery wakelocked.
	HW hw.Set
	// Perceptible classifies the delivery by its observed behaviour:
	// one-shot or wakelocking user-perceptible hardware.
	Perceptible bool
	// Session is the awake session the delivery happened in.
	Session int
	// EntrySize is how many alarms were batched in the delivered entry.
	EntrySize int
	// EntrySeq identifies the delivered entry: all records of one batch
	// share it, and it increments per delivered entry.
	EntrySeq int
}

// NormalizedDelay is the paper's user-experience metric (§4.1): zero if
// the delivery fell within the window interval, otherwise the delay
// behind the window end normalized by the repeating interval.
func (r Record) NormalizedDelay() float64 {
	if r.Delivered <= r.WindowEnd || r.Period <= 0 {
		return 0
	}
	return r.Delivered.Sub(r.WindowEnd).Seconds() / r.Period.Seconds()
}

// Manager is the simulated AlarmManager. It maintains separate queues for
// wakeup and non-wakeup alarms (the alignment policy is applied to the
// two kinds separately, §2.1 and §3.2.1), schedules deliveries on the
// simulation clock, learns each alarm's hardware set at delivery, and
// reinserts repeating alarms.
type Manager struct {
	clock  *simclock.Clock
	host   Host
	policy Policy

	wakeQ, nonwakeQ Queue

	// realign enables the native realignment-on-reinsert behaviour: when
	// an alarm that is still queued is re-registered, the whole queue is
	// rebuilt in nominal-time order (§2.1). On by default.
	realign bool

	wakeTimer    simclock.Timer
	nonwakeTimer simclock.Timer

	onRecord func(Record)

	delivering bool
	entrySeq   int

	// due is deliverDue's reusable buffer of popped entries.
	due []*Entry

	// The manager's timer and wake callbacks, bound on the first Reset:
	// scheduling or subscribing a method value would allocate a closure
	// per call.
	onWakeTimerFn, onNonWakeTimerFn, deliverDueFn, flushNonWakeupFn func()
}

// NewManager creates a manager driving deliveries through host using the
// given alignment policy.
func NewManager(clock *simclock.Clock, host Host, policy Policy) *Manager {
	m := new(Manager)
	m.Reset(clock, host, policy)
	return m
}

// Reset returns the manager to NewManager's state on clock, host and
// policy: both queues empty, realignment on, no record sink, entry
// numbering from the start. The queues' pools, entry arrays and ID maps
// and the due buffer keep their capacity, so a manager reused across
// simulations skips their warm-up. Alarms still queued are dropped.
func (m *Manager) Reset(clock *simclock.Clock, host Host, policy Policy) {
	if clock == nil || host == nil || policy == nil {
		panic("alarm: Reset with nil dependency")
	}
	m.clock, m.host, m.policy = clock, host, policy
	m.wakeQ.Reset()
	m.nonwakeQ.Reset()
	m.realign = true
	m.wakeTimer, m.nonwakeTimer = simclock.Timer{}, simclock.Timer{}
	m.onRecord = nil
	m.delivering = false
	m.entrySeq = 0
	if m.onWakeTimerFn == nil {
		m.onWakeTimerFn = m.onWakeTimer
		m.onNonWakeTimerFn = m.onNonWakeTimer
		m.deliverDueFn = m.deliverDue
		m.flushNonWakeupFn = m.flushNonWakeup
	}
	host.OnWake(m.flushNonWakeupFn)
}

// SetRealign toggles realignment-on-reinsert (ablation 3 in DESIGN.md).
func (m *Manager) SetRealign(on bool) { m.realign = on }

// SetRecordFunc registers the delivery-record sink.
func (m *Manager) SetRecordFunc(fn func(Record)) { m.onRecord = fn }

// QueueFor exposes the queue holding alarms of the given kind (read-only
// use: tests and reporting).
func (m *Manager) QueueFor(k Kind) *Queue {
	if k == Wakeup {
		return &m.wakeQ
	}
	return &m.nonwakeQ
}

// Set registers (or re-registers) an alarm. If the same alarm is still
// queued, the native realignment behaviour reinserts the whole queue in
// nominal order together with the new alarm (§2.1). A re-registration
// may change the alarm's Kind: any stale copy is removed from both
// queues first, so an ID is never queued twice across kinds.
func (m *Manager) Set(a *Alarm) error {
	if a == nil {
		return fmt.Errorf("alarm: Set nil alarm")
	}
	if err := a.Validate(); err != nil {
		return err
	}
	if a.Nominal < m.clock.Now() {
		return fmt.Errorf("alarm %s: nominal %v in the past (now %v)", a.ID, a.Nominal, m.clock.Now())
	}
	q := m.QueueFor(a.Kind)
	other := &m.nonwakeQ
	if a.Kind != Wakeup {
		other = &m.wakeQ
	}
	// Drop any previous registration — including one whose Kind
	// differed, which would otherwise linger in the other queue and
	// double-deliver.
	found := q.Remove(a.ID) != nil
	if other.Remove(a.ID) != nil {
		found = true
	}
	if found && m.realign {
		q.Realign(a, m.policy, m.clock.Now())
	} else {
		q.Insert(a, m.policy, m.clock.Now())
	}
	m.reschedule()
	return nil
}

// Pending reports the total number of queued alarms.
func (m *Manager) Pending() int { return m.wakeQ.AlarmCount() + m.nonwakeQ.AlarmCount() }

// reschedule re-arms the delivery timers to the current queue heads.
// Cancel on an already-fired timer is a no-op (the pool generation has
// moved on), so the timers need no explicit zeroing between deliveries.
func (m *Manager) reschedule() {
	m.clock.Cancel(m.wakeTimer)
	m.wakeTimer = simclock.Timer{}
	if h := m.wakeQ.Head(); h != nil {
		at := maxTime(m.clock.Now(), h.DeliveryTime())
		m.wakeTimer = m.clock.Schedule(at, m.onWakeTimerFn)
	}
	m.clock.Cancel(m.nonwakeTimer)
	m.nonwakeTimer = simclock.Timer{}
	if h := m.nonwakeQ.Head(); h != nil {
		at := maxTime(m.clock.Now(), h.DeliveryTime())
		m.nonwakeTimer = m.clock.Schedule(at, m.onNonWakeTimerFn)
	}
}

// onWakeTimer fires at the head wakeup entry's delivery time: the RTC
// awakens the device (if asleep) and due entries are delivered.
func (m *Manager) onWakeTimer() {
	m.wakeTimer = simclock.Timer{}
	m.host.ExecuteWake(m.deliverDueFn)
}

// onNonWakeTimer fires at the head non-wakeup entry's delivery time. It
// delivers only if the device happens to be awake; otherwise the entry
// waits for the next wake (flushNonWakeup).
func (m *Manager) onNonWakeTimer() {
	m.nonwakeTimer = simclock.Timer{}
	if m.host.Awake() {
		m.deliverDue()
	}
}

// flushNonWakeup delivers due non-wakeup entries when the device wakes
// for any reason.
func (m *Manager) flushNonWakeup() {
	if m.nonwakeQ.Len() == 0 {
		return
	}
	m.deliverDue()
}

// deliverDue delivers every due entry from both queues. The device is
// awake when this runs.
func (m *Manager) deliverDue() {
	if m.delivering {
		return
	}
	m.delivering = true
	now := m.clock.Now()
	due := m.wakeQ.popDue(m.due[:0], now)
	nWake := len(due)
	due = m.nonwakeQ.popDue(due, now)
	for _, e := range due {
		m.entrySeq++
		for _, a := range e.Alarms {
			m.deliverAlarm(a, e, now)
		}
	}
	// Every member was delivered (and any repeating one reinserted), so
	// the popped entries go back to their queues' pools. None was reused
	// during the loop: the pools held only entries delivered earlier.
	for i, e := range due {
		if i < nWake {
			m.wakeQ.recycle(e)
		} else {
			m.nonwakeQ.recycle(e)
		}
	}
	clear(due)
	m.due = due[:0]
	m.delivering = false
	m.reschedule()
}

// deliverAlarm runs one alarm's task, records the delivery, learns the
// hardware set, and reinserts repeating alarms.
func (m *Manager) deliverAlarm(a *Alarm, e *Entry, now simclock.Time) {
	used := a.HW
	if a.OnDeliver != nil {
		used = a.OnDeliver(now)
	}
	a.HW = used
	a.HWKnown = true
	a.Deliveries++

	if m.onRecord != nil {
		m.onRecord(Record{
			AlarmID:     a.ID,
			App:         a.App,
			Kind:        a.Kind,
			Repeat:      a.Repeat,
			Nominal:     a.Nominal,
			WindowEnd:   a.WindowEnd(),
			GraceEnd:    a.GraceEnd(),
			Period:      a.Period,
			Delivered:   now,
			HW:          used,
			Perceptible: a.Repeat == OneShot || used.Perceptible(),
			Session:     m.host.Session(),
			EntrySize:   e.Len(),
			EntrySeq:    m.entrySeq,
		})
	}

	switch a.Repeat {
	case OneShot:
		return
	case Static:
		next := a.Nominal.Add(a.Period)
		for next <= now {
			next = next.Add(a.Period)
		}
		a.Nominal = next
	case Dynamic:
		a.Nominal = now.Add(a.Period)
	}
	m.QueueFor(a.Kind).Insert(a, m.policy, now)
}
