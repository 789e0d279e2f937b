package alarm

import (
	"sort"

	"repro/internal/freelist"
	"repro/internal/simclock"
)

// Policy decides which queue entry a newly inserted alarm should join.
// Android's native policy and the paper's SIMTY (internal/core) both
// implement it.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Select returns the index into entries of the entry the alarm
	// should be placed in, or -1 to create a new entry. entries is in
	// queue (delivery-time) order.
	Select(entries []*Entry, a *Alarm, now simclock.Time) int
}

// Native is Android ≥4.4's alignment policy (§2.1): scan the queue in
// order and place the alarm in the first entry whose window interval
// overlaps the alarm's window interval. Exact alarms (zero window) are
// standalone, as in Android's AlarmManagerService: they get their own
// batch and other alarms never coalesce into it.
type Native struct{}

// Name implements Policy.
func (Native) Name() string { return "NATIVE" }

// Select implements Policy.
func (Native) Select(entries []*Entry, a *Alarm, _ simclock.Time) int {
	if a.Window == 0 {
		return -1
	}
	for i, e := range entries {
		if e.HasExact() {
			continue
		}
		if e.WindowOverlaps(a.Nominal, a.WindowEnd()) {
			return i
		}
	}
	return -1
}

// Interval is the "immediate remedy" the paper's introduction cites
// (ref [5]): awaken the device only on a fixed time grid by forcibly
// aligning all background activities that fall within the same grid
// interval, regardless of their window or grace attributes. It trades
// user experience away bluntly — perceptible alarms can be postponed past
// their windows — which is exactly the defect SIMTY's similarity rules
// repair.
type Interval struct {
	// Grid is the alignment interval. Zero means the 5-minute default.
	Grid simclock.Duration
}

// DefaultIntervalGrid is the grid used when Interval.Grid is zero.
const DefaultIntervalGrid = 300 * simclock.Second

func (p Interval) grid() simclock.Duration {
	if p.Grid <= 0 {
		return DefaultIntervalGrid
	}
	return p.Grid
}

// Name implements Policy.
func (p Interval) Name() string { return "INTERVAL" }

// Select implements Policy: join the entry occupying the alarm's grid
// slot, if any.
func (p Interval) Select(entries []*Entry, a *Alarm, _ simclock.Time) int {
	g := simclock.Time(p.grid())
	slot := a.Nominal / g
	for i, e := range entries {
		if e.DeliveryTime()/g == slot {
			return i
		}
	}
	return -1
}

// Doze approximates the maintenance-window scheme Android 6 shipped the
// year before the paper appeared: perceptible and exact alarms keep the
// native rules (they are what setAndAllowWhileIdle / setAlarmClock
// protect), while every imperceptible windowed alarm is deferred into
// fixed maintenance windows regardless of its window or grace interval.
// It is the paper's SIMTY with the similarity rules ripped out — a
// useful foil: more energy saved, but the §3.2.2 periodicity guarantees
// no longer hold.
type Doze struct {
	// Window is the maintenance-window spacing. Zero means 15 minutes.
	Window simclock.Duration
}

// DefaultDozeWindow is used when Doze.Window is zero.
const DefaultDozeWindow = 15 * simclock.Minute

func (p Doze) window() simclock.Duration {
	if p.Window <= 0 {
		return DefaultDozeWindow
	}
	return p.Window
}

// Name implements Policy.
func (p Doze) Name() string { return "DOZE" }

// Select implements Policy.
func (p Doze) Select(entries []*Entry, a *Alarm, now simclock.Time) int {
	if a.Perceptible() {
		// Fall back to the native rules for user-visible alarms.
		return Native{}.Select(entries, a, now)
	}
	g := simclock.Time(p.window())
	slot := a.Nominal / g
	for i, e := range entries {
		if e.Perceptible {
			continue
		}
		if e.DeliveryTime()/g == slot {
			return i
		}
	}
	return -1
}

// NoAlign never batches: every alarm gets its own entry. It provides the
// "expected number of wakeups if no alignment policy is applied"
// baseline of Table 4.
type NoAlign struct{}

// Name implements Policy.
func (NoAlign) Name() string { return "NOALIGN" }

// Select implements Policy.
func (NoAlign) Select([]*Entry, *Alarm, simclock.Time) int { return -1 }

// Queue is an ordered list of entries, sorted by delivery time (ties
// keep insertion order, matching the "first found" rule), indexed by
// alarm ID so membership operations stay cheap at large populations.
//
// The zero Queue is ready to use. Ordering is maintained positionally:
// inserting a new entry binary-searches its slot, and an entry whose
// delivery time shifts (members joining or leaving) is moved with a
// binary-searched rotation. Both reproduce exactly the order a stable
// full sort of the seed implementation produced, which the golden
// parity test at the repository root pins down.
type Queue struct {
	entries []*Entry
	// byID maps each queued alarm ID to the entry holding it. Lazily
	// allocated so the zero Queue works.
	byID map[string]*Entry
	// count is the total number of queued alarms (Σ entry lengths).
	count int
	// free holds delivered entries the Manager handed back (recycle),
	// and after Reset every entry the queue made; newEntry reuses them,
	// member slice capacity included.
	free freelist.List[Entry]
}

// Reset empties the queue. Every entry it made goes back to the pool,
// member capacity included, and the entry array and ID map keep theirs;
// the alarms the entries held are dropped.
func (q *Queue) Reset() {
	for _, e := range q.entries {
		clear(e.Alarms)
	}
	clear(q.entries)
	q.entries = q.entries[:0]
	clear(q.byID)
	q.count = 0
	q.free.Reclaim()
}

// Entries exposes the entries in queue order. Callers must not mutate.
func (q *Queue) Entries() []*Entry { return q.entries }

// Len reports the number of entries.
func (q *Queue) Len() int { return len(q.entries) }

// AlarmCount reports the total number of queued alarms.
func (q *Queue) AlarmCount() int { return q.count }

// Alarms returns all queued alarms in entry order.
func (q *Queue) Alarms() []*Alarm {
	as := make([]*Alarm, 0, q.count)
	for _, e := range q.entries {
		as = append(as, e.Alarms...)
	}
	return as
}

// Insert places the alarm according to the policy and returns the entry
// it landed in. If an alarm with the same ID is already queued it is
// removed first (the queue never holds two alarms with one ID). A
// policy returning an index outside [0, len(entries)) other than -1
// gets the documented fallback — the alarm opens a new entry — instead
// of crashing the simulation (user-supplied policies are invited by
// examples/custompolicy, so an out-of-range pick must not panic).
// Inserting a nil alarm or passing a nil policy is caller misuse and
// returns nil without queuing anything.
func (q *Queue) Insert(a *Alarm, p Policy, now simclock.Time) *Entry {
	if a == nil || p == nil {
		return nil
	}
	if q.byID[a.ID] != nil {
		q.Remove(a.ID)
	}
	o, _ := p.(Offsetter)
	idx := p.Select(q.entries, a, now)
	var e *Entry
	if idx >= 0 && idx < len(q.entries) {
		e = q.entries[idx]
		e.add(a)
		if o != nil {
			// Membership changed (the entry may have turned perceptible),
			// so the offset is re-evaluated before the order fix below.
			e.Offset = o.EntryOffset(e)
		}
		// Joining can only move the delivery time later (it is the
		// latest member nominal); restore order positionally.
		q.fixPosition(idx)
	} else {
		// idx == -1, or the policy's fallback for an out-of-range pick.
		e = q.newEntry(a)
		if o != nil {
			e.Offset = o.EntryOffset(e)
		}
		q.insertEntry(e)
	}
	if q.byID == nil {
		q.byID = make(map[string]*Entry)
	}
	q.byID[a.ID] = e
	q.count++
	return e
}

// insertEntry places a fresh entry at its sorted position: after every
// entry with delivery time ≤ its own, matching the stable-sort order of
// appending then re-sorting.
func (q *Queue) insertEntry(e *Entry) {
	k := e.DeliveryTime()
	i := sort.Search(len(q.entries), func(m int) bool {
		return q.entries[m].DeliveryTime() > k
	})
	q.entries = append(q.entries, nil)
	copy(q.entries[i+1:], q.entries[i:])
	q.entries[i] = e
}

// fixPosition restores sorted order after the entry at index i changed
// its delivery time, reproducing what a stable re-sort would do: the
// entry moves past strictly earlier entries when its time grew and past
// strictly later entries when it shrank, never reordering ties.
func (q *Queue) fixPosition(i int) {
	es := q.entries
	e := es[i]
	k := e.DeliveryTime()
	if i+1 < len(es) && es[i+1].DeliveryTime() < k {
		// Move right: to just before the first later entry with
		// delivery time ≥ k.
		j := i + 1 + sort.Search(len(es)-i-1, func(m int) bool {
			return es[i+1+m].DeliveryTime() >= k
		})
		copy(es[i:], es[i+1:j])
		es[j-1] = e
		return
	}
	if i > 0 && es[i-1].DeliveryTime() > k {
		// Move left: to the position of the first earlier entry with
		// delivery time > k.
		j := sort.Search(i, func(m int) bool {
			return es[m].DeliveryTime() > k
		})
		copy(es[j+1:i+1], es[j:i])
		es[j] = e
	}
}

// locate returns the index of e in the entry list by binary-searching
// its delivery time and scanning the run of ties.
func (q *Queue) locate(e *Entry) int {
	k := e.DeliveryTime()
	i := sort.Search(len(q.entries), func(m int) bool {
		return q.entries[m].DeliveryTime() >= k
	})
	for i < len(q.entries) && q.entries[i] != e {
		i++
	}
	return i
}

// Remove deletes the alarm with the given ID wherever it is queued and
// returns it, or nil if absent. Entries left empty are dropped.
func (q *Queue) Remove(id string) *Alarm {
	e := q.byID[id]
	if e == nil {
		return nil
	}
	// Locate the entry before mutating it: the lookup keys on the
	// pre-removal delivery time.
	i := q.locate(e)
	idx := e.find(id)
	if idx < 0 {
		delete(q.byID, id)
		return nil
	}
	a := e.Alarms[idx]
	e.remove(id)
	delete(q.byID, id)
	q.count--
	if e.Len() == 0 {
		q.entries = append(q.entries[:i], q.entries[i+1:]...)
	} else {
		q.fixPosition(i)
	}
	return a
}

// Find returns the queued alarm with the given ID, or nil.
func (q *Queue) Find(id string) *Alarm {
	e := q.byID[id]
	if e == nil {
		return nil
	}
	if i := e.find(id); i >= 0 {
		return e.Alarms[i]
	}
	return nil
}

// Head returns the entry with the earliest delivery time, or nil.
func (q *Queue) Head() *Entry {
	if len(q.entries) == 0 {
		return nil
	}
	return q.entries[0]
}

// newEntry creates a single-alarm entry, reusing a recycled one if any.
func (q *Queue) newEntry(a *Alarm) *Entry {
	e := q.free.Get()
	if e == nil {
		e = newEntry(a)
		q.free.Made(e)
		return e
	}
	*e = Entry{Alarms: e.Alarms[:0]}
	e.add(a)
	return e
}

// recycle hands a popped entry whose members have all been dealt with
// back to the queue for reuse. The caller must hold no other reference
// to it.
func (q *Queue) recycle(e *Entry) {
	clear(e.Alarms)
	q.free.Put(e)
}

// PopDue removes and returns all entries whose delivery time is ≤ now,
// in delivery order.
func (q *Queue) PopDue(now simclock.Time) []*Entry {
	return q.popDue(nil, now)
}

// popDue appends the due entries to dst and removes them from the queue.
// The remaining entries shift to the front of the same backing array, so
// later inserts reuse its capacity.
func (q *Queue) popDue(dst []*Entry, now simclock.Time) []*Entry {
	n := 0
	for n < len(q.entries) && q.entries[n].DeliveryTime() <= now {
		n++
	}
	for _, e := range q.entries[:n] {
		for _, a := range e.Alarms {
			delete(q.byID, a.ID)
			q.count--
		}
	}
	dst = append(dst, q.entries[:n]...)
	rest := copy(q.entries, q.entries[n:])
	clear(q.entries[rest:])
	q.entries = q.entries[:rest]
	return dst
}

// Clear removes every entry and returns the alarms that were queued, in
// nominal-delivery-time order (the order the realignment path reinserts
// them, §2.1).
func (q *Queue) Clear() []*Alarm {
	as := q.Alarms()
	q.entries = nil
	q.byID = nil
	q.count = 0
	sort.SliceStable(as, func(i, j int) bool { return as[i].Nominal < as[j].Nominal })
	return as
}

// Realign re-registers a through the native realignment-on-reinsert
// path (§2.1): every pending alarm plus a is reinserted in nominal
// order, rebuilding the batches from scratch. The splice position is
// binary-searched and each reinsertion is a positional insert, so the
// rebuild costs one policy scan per alarm instead of the seed's
// additional full sort per alarm. The caller must have removed any
// previous registration of a.ID (Realign asserts nothing about
// duplicates beyond Insert's replace rule).
func (q *Queue) Realign(a *Alarm, p Policy, now simclock.Time) {
	pending := q.Clear()
	i := sort.Search(len(pending), func(m int) bool { return a.Nominal < pending[m].Nominal })
	pending = append(pending, nil)
	copy(pending[i+1:], pending[i:])
	pending[i] = a
	for _, x := range pending {
		q.Insert(x, p, now)
	}
}
