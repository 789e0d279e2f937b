// Package simclock provides a deterministic discrete-event simulation
// kernel: a virtual clock, a cancellable timer heap, and seeded random
// number helpers.
//
// All simulated subsystems in this repository (the alarm manager, the
// device power state machine, application models) are driven by a single
// Clock. Events scheduled for the same instant fire in FIFO order of
// scheduling, which makes every simulation run fully reproducible for a
// given seed.
//
// The kernel is allocation-free in steady state: fired and cancelled
// events are recycled through a per-clock free list, and the timer heap
// is maintained with inline sift operations (no container/heap interface
// boxing). Schedule therefore returns a generation-stamped Timer handle
// rather than a pointer into the pool — a stale handle held after its
// event fired or was cancelled can never observe, cancel, or resurrect
// the recycled Event that now backs a different timer.
package simclock

import (
	"fmt"
	"math/rand"

	"repro/internal/freelist"
)

// Time is an instant in virtual time, in milliseconds since the start of
// the simulation. Millisecond granularity matches Android's AlarmManager,
// whose triggerAtMillis API is the interface the paper's policies manage.
type Time int64

// Duration is a span of virtual time in milliseconds.
type Duration int64

// Convenience duration units.
const (
	Millisecond Duration = 1
	Second               = 1000 * Millisecond
	Minute               = 60 * Second
	Hour                 = 60 * Minute
)

// Horizon converts a standby horizon in hours to a Duration. It rejects
// NaN, ±Inf, h ≤ 0 and h > 10,000 before converting: a longer horizon
// is a typo, not a workload.
func Horizon(h float64) (Duration, error) {
	if !(h > 0 && h <= 10_000) { // NaN fails both comparisons
		return 0, fmt.Errorf("horizon %v hours outside (0, 10000]", h)
	}
	return Duration(h * float64(Hour)), nil
}

// Add returns the time t+d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds reports the duration in seconds as a float.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// String formats a Time as seconds with millisecond precision.
func (t Time) String() string { return fmt.Sprintf("%.3fs", float64(t)/float64(Second)) }

// String formats a Duration as seconds with millisecond precision.
func (d Duration) String() string { return fmt.Sprintf("%.3fs", float64(d)/float64(Second)) }

// Event is a pooled, heap-resident scheduled callback. Events are owned
// by their Clock: once fired or cancelled, the object goes back to the
// free list and is reused by a later Schedule. User code never holds an
// *Event — Schedule returns a Timer handle carrying the generation the
// event had when scheduled, and every handle operation checks it.
type Event struct {
	at    Time
	seq   uint64
	index int    // heap index; -1 while on the free list
	gen   uint64 // incremented on every recycle; Timers pin the value
	fn    func()
}

// Timer is a cancellable handle to a scheduled event. The zero Timer is
// valid and permanently non-pending, so "no timer armed" needs no
// sentinel. A Timer outliving its event is harmless: once the event
// fires or is cancelled, the pool generation moves on and the stale
// handle reports !Pending and cancels nothing — even if the underlying
// Event object has been recycled into a live timer by then.
type Timer struct {
	e   *Event
	gen uint64
}

// Pending reports whether the timer's event is still queued.
func (t Timer) Pending() bool { return t.e != nil && t.gen == t.e.gen && t.e.index >= 0 }

// At reports the virtual time the event is scheduled for, or zero if the
// timer is no longer pending.
func (t Timer) At() Time {
	if !t.Pending() {
		return 0
	}
	return t.e.at
}

// Clock is a virtual clock with an event queue. The zero value is a
// clock at time zero with an empty queue; Reset returns a used clock to
// that state while keeping its grown pool and heap array.
type Clock struct {
	now Time
	pq  []*Event // min-heap on (at, seq)
	seq uint64

	// free is the event pool. Its peak size is the clock's peak queue
	// depth, so a simulation's total event allocations are bounded by its
	// maximum concurrency, not its event count.
	free freelist.List[Event]
	// nopool (test-only) disables recycling so property tests can compare
	// pooled and unpooled kernels on identical schedules.
	nopool bool
}

// New returns a Clock positioned at time zero with an empty event queue.
func New() *Clock { return &Clock{} }

// Reset returns the clock to time zero with an empty queue. Every event
// still pending is recycled as if cancelled: its generation moves on, so
// a Timer handed out before the reset can never observe, cancel or fire
// the object once a later Schedule reuses it. The free list and the heap
// array keep their capacity for the next simulation.
func (c *Clock) Reset() {
	for _, e := range c.pq {
		c.recycle(e)
	}
	clear(c.pq)
	c.pq = c.pq[:0]
	c.now, c.seq = 0, 0
}

// Now reports the current virtual time.
func (c *Clock) Now() Time { return c.now }

// Len reports the number of pending events.
func (c *Clock) Len() int { return len(c.pq) }

// alloc takes an event from the free list, or the heap when it is empty.
func (c *Clock) alloc() *Event {
	if e := c.free.Get(); e != nil {
		return e
	}
	return &Event{}
}

// recycle retires a fired or cancelled event into the free list. The
// generation bump is what invalidates every Timer handed out for this
// incarnation of the object.
func (c *Clock) recycle(e *Event) {
	e.gen++
	e.fn = nil
	e.index = -1
	if !c.nopool {
		c.free.Put(e)
	}
}

// Schedule queues fn to run at the given virtual time. Scheduling in the
// past (before Now) panics: a simulated subsystem that asks for the past
// has a logic error that must not be silently reordered. Scheduling for
// exactly Now is allowed and fires on the next Step.
func (c *Clock) Schedule(at Time, fn func()) Timer {
	if at < c.now {
		panic(fmt.Sprintf("simclock: schedule at %v before now %v", at, c.now))
	}
	if fn == nil {
		panic("simclock: schedule with nil callback")
	}
	e := c.alloc()
	e.at, e.seq, e.fn = at, c.seq, fn
	c.seq++
	c.push(e)
	return Timer{e: e, gen: e.gen}
}

// After queues fn to run d from now. Negative d panics via Schedule.
func (c *Clock) After(d Duration, fn func()) Timer {
	return c.Schedule(c.now.Add(d), fn)
}

// Cancel removes a pending event from the queue and recycles it.
// Cancelling a zero, already-fired, or already-cancelled Timer is a
// no-op, so callers can cancel unconditionally.
func (c *Clock) Cancel(t Timer) {
	if !t.Pending() {
		return
	}
	c.remove(t.e.index)
	c.recycle(t.e)
}

// Step fires the earliest pending event, advancing the clock to its
// scheduled time. It reports whether an event was fired.
func (c *Clock) Step() bool {
	if len(c.pq) == 0 {
		return false
	}
	c.fireMin()
	return true
}

// Run fires events in order until the queue is empty or the next event
// lies strictly beyond until. It then advances the clock to until, so
// that time-integrated quantities (energy) cover the full horizon. Events
// scheduled exactly at until are fired.
func (c *Clock) Run(until Time) {
	if until < c.now {
		panic(fmt.Sprintf("simclock: run until %v before now %v", until, c.now))
	}
	for len(c.pq) > 0 && c.pq[0].at <= until {
		c.fireMin()
	}
	c.now = until
}

// fireMin pops the heap root, recycles it, and runs its callback. The
// event goes back to the pool before fn runs: the callback may schedule
// new timers (they will happily reuse the just-retired object), and any
// handle to the fired event is already invalidated by the generation
// bump, so cancel-after-fire cannot touch the reused object.
func (c *Clock) fireMin() {
	e := c.pq[0]
	c.now = e.at
	fn := e.fn
	c.popMin()
	c.recycle(e)
	fn()
}

// --- heap internals: an inline min-heap on (at, seq), equivalent to
// container/heap on the old eventHeap but monomorphic — no interface
// boxing, no indirect Less/Swap calls on the per-event path.

// less orders the heap by scheduled time, FIFO within one instant.
func eventLess(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push appends e and restores the heap property upwards.
func (c *Clock) push(e *Event) {
	e.index = len(c.pq)
	c.pq = append(c.pq, e)
	c.siftUp(e.index)
}

// popMin removes the root (the earliest event) from the heap.
func (c *Clock) popMin() {
	last := len(c.pq) - 1
	c.swap(0, last)
	c.pq[last] = nil
	c.pq = c.pq[:last]
	if last > 0 {
		c.siftDown(0)
	}
}

// remove deletes the event at heap index i (Cancel's path).
func (c *Clock) remove(i int) {
	last := len(c.pq) - 1
	if i != last {
		c.swap(i, last)
	}
	c.pq[last] = nil
	c.pq = c.pq[:last]
	if i < last {
		if !c.siftDown(i) {
			c.siftUp(i)
		}
	}
}

func (c *Clock) swap(i, j int) {
	c.pq[i], c.pq[j] = c.pq[j], c.pq[i]
	c.pq[i].index = i
	c.pq[j].index = j
}

func (c *Clock) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(c.pq[i], c.pq[parent]) {
			break
		}
		c.swap(i, parent)
		i = parent
	}
}

// siftDown restores the heap property downwards from i, reporting
// whether the element moved (mirrors container/heap's down, whose result
// remove uses to decide between sifting directions).
func (c *Clock) siftDown(i int) bool {
	start := i
	n := len(c.pq)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		least := left
		if right := left + 1; right < n && eventLess(c.pq[right], c.pq[left]) {
			least = right
		}
		if !eventLess(c.pq[least], c.pq[i]) {
			break
		}
		c.swap(i, least)
		i = least
	}
	return i > start
}

// Rand returns a deterministic pseudo-random source for the given seed.
// Simulation components derive their own streams from a scenario seed so
// that changing one component's consumption pattern does not perturb the
// others.
func Rand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// Reseed returns r reseeded to seed, or Rand(seed) when r is nil. A
// reseeded source is in exactly the state Rand(seed) starts in, so a
// layer that keeps its source across simulations draws the same stream
// without allocating another ~5 KB source per run.
func Reseed(r *rand.Rand, seed int64) *rand.Rand {
	if r == nil {
		return Rand(seed)
	}
	r.Seed(seed)
	return r
}

// drawSources holds the sources Draw recycles: one for each call that
// ever ran at once.
var drawSources freelist.Locked[rand.Rand]

// Draw calls fn with a source in the state Rand(seed) starts in, taken
// from the sources earlier calls used, for the callers that need a
// handful of draws from a fresh stream. fn must not keep the source. Draw
// is safe for concurrent use.
func Draw(seed int64, fn func(*rand.Rand)) {
	r := Reseed(drawSources.Get(), seed)
	fn(r)
	drawSources.Put(r)
}
