package alarm

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/hw"
	"repro/internal/simclock"
)

// checkQueueInvariants verifies the structural invariants any queue must
// keep after arbitrary operation sequences:
//  1. entries are sorted by delivery time;
//  2. no entry is empty;
//  3. each alarm ID appears exactly once;
//  4. every entry's attributes equal a from-scratch recomputation over
//     its members (intersection windows/graces, union hardware,
//     perceptibility OR);
//  5. the ID index and alarm count agree exactly with the entry list.
func checkQueueInvariants(t *testing.T, q *Queue) error {
	t.Helper()
	seen := map[string]bool{}
	var prev simclock.Time = -1 << 62
	total := 0
	for _, e := range q.Entries() {
		if e.Len() == 0 {
			return fmt.Errorf("empty entry in queue")
		}
		if e.DeliveryTime() < prev {
			return fmt.Errorf("queue not sorted: %v after %v", e.DeliveryTime(), prev)
		}
		prev = e.DeliveryTime()
		total += e.Len()
		// Recompute attributes from scratch.
		var fresh Entry
		for _, a := range e.Alarms {
			if seen[a.ID] {
				return fmt.Errorf("alarm %s appears twice", a.ID)
			}
			seen[a.ID] = true
			fresh.add(a)
		}
		if fresh.WinStart != e.WinStart || fresh.WinEnd != e.WinEnd ||
			fresh.GraceStart != e.GraceStart || fresh.GraceEnd != e.GraceEnd ||
			fresh.HW != e.HW || fresh.Perceptible != e.Perceptible ||
			fresh.HasExact() != e.HasExact() {
			return fmt.Errorf("entry attributes stale:\n have %v\n want %v", e, &fresh)
		}
	}
	return checkQueueIndex(q, seen, total)
}

// checkQueueIndex asserts the ID→entry map is exactly the member list:
// every queued ID maps to the entry that holds it, no stale keys
// linger, and the cached alarm count matches.
func checkQueueIndex(q *Queue, ids map[string]bool, total int) error {
	if q.count != total {
		return fmt.Errorf("count = %d, entries hold %d alarms", q.count, total)
	}
	if len(q.byID) != total {
		return fmt.Errorf("index holds %d IDs, entries hold %d alarms", len(q.byID), total)
	}
	for id, e := range q.byID {
		if !ids[id] {
			return fmt.Errorf("index holds stale ID %s", id)
		}
		if e == nil || e.find(id) < 0 {
			return fmt.Errorf("index maps %s to an entry that lacks it", id)
		}
	}
	return nil
}

// TestPropertyQueueInvariants drives random insert/remove sequences
// through each policy and checks the invariants after every operation.
func TestPropertyQueueInvariants(t *testing.T) {
	policies := []Policy{Native{}, NoAlign{}, Interval{}, joinAny{}}
	hwSets := []hw.Set{0, hw.MakeSet(hw.WiFi), hw.MakeSet(hw.WPS), hw.MakeSet(hw.Speaker)}
	prop := func(ops []uint16) bool {
		for _, p := range policies {
			var q Queue
			for i, op := range ops {
				id := fmt.Sprintf("a%d", int(op)%24)
				if op%5 == 0 {
					q.Remove(id)
				} else {
					if q.Find(id) != nil {
						q.Remove(id)
					}
					period := simclock.Duration(60+int(op)%600) * simclock.Second
					alpha := float64(int(op)%4) * 0.25
					a := &Alarm{
						ID: id, Repeat: Static,
						Nominal: simclock.Time(simclock.Duration(int(op)%1000) * simclock.Second),
						Period:  period,
						Window:  simclock.Duration(float64(period) * alpha),
						Grace:   simclock.Duration(float64(period) * 0.9),
						HW:      hwSets[(int(op)/7)%len(hwSets)],
						HWKnown: op%3 == 0,
					}
					q.Insert(a, p, 0)
				}
				if err := checkQueueInvariants(t, &q); err != nil {
					t.Logf("%s after op %d: %v", p.Name(), i, err)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// joinAny stresses the attribute bookkeeping by always merging into the
// largest entry (a pathological but legal policy).
type joinAny struct{}

func (joinAny) Name() string { return "joinAny" }
func (joinAny) Select(entries []*Entry, _ *Alarm, _ simclock.Time) int {
	best, size := -1, 0
	for i, e := range entries {
		if e.Len() > size {
			best, size = i, e.Len()
		}
	}
	return best
}

// TestPropertyManagerCrossQueueConsistency drives random
// register/re-register sequences — including Kind changes on
// re-registration — through a Manager and checks, after every
// operation, that alarm IDs stay unique across both queues and that
// each queue's ID index stays consistent with its entry list.
func TestPropertyManagerCrossQueueConsistency(t *testing.T) {
	for _, realign := range []bool{true, false} {
		prop := func(ops []uint16) bool {
			c := simclock.New()
			h := newFakeHost(c, 0)
			m := NewManager(c, h, Native{})
			m.SetRealign(realign)
			for i, op := range ops {
				kind := Wakeup
				if op%3 == 0 {
					kind = NonWakeup
				}
				period := simclock.Duration(60+int(op)%600) * simclock.Second
				a := &Alarm{
					ID: fmt.Sprintf("m%d", int(op)%16), Kind: kind, Repeat: Static,
					Nominal: simclock.Time(simclock.Duration(int(op)%1000) * simclock.Second),
					Period:  period,
					Window:  period / 4,
					Grace:   period / 2,
					HW:      hw.MakeSet(hw.WiFi),
					HWKnown: op%2 == 0,
				}
				if err := m.Set(a); err != nil {
					t.Logf("realign=%t op %d: Set: %v", realign, i, err)
					return false
				}
				wq, nq := m.QueueFor(Wakeup), m.QueueFor(NonWakeup)
				for _, q := range []*Queue{wq, nq} {
					if err := checkQueueInvariants(t, q); err != nil {
						t.Logf("realign=%t op %d: %v", realign, i, err)
						return false
					}
				}
				// No ID may live in both queues at once.
				for _, a := range wq.Alarms() {
					if nq.Find(a.ID) != nil {
						t.Logf("realign=%t op %d: %s queued in both queues", realign, i, a.ID)
						return false
					}
				}
			}
			return true
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
			t.Fatalf("realign=%t: %v", realign, err)
		}
	}
}

// TestQueueScalesToHundredsOfAlarms is a volume smoke test: 300 alarms
// through the realignment-heavy path stay consistent.
func TestQueueScalesToHundredsOfAlarms(t *testing.T) {
	var q Queue
	for i := 0; i < 300; i++ {
		period := simclock.Duration(60+i%500) * simclock.Second
		a := &Alarm{
			ID: fmt.Sprintf("x%d", i), Repeat: Dynamic,
			Nominal: simclock.Time(simclock.Duration(i*7%900) * simclock.Second),
			Period:  period,
			Window:  period / 4,
			Grace:   period / 2,
			HW:      hw.MakeSet(hw.WiFi),
			HWKnown: true,
		}
		q.Insert(a, Native{}, 0)
	}
	if q.AlarmCount() != 300 {
		t.Fatalf("alarms = %d", q.AlarmCount())
	}
	if err := checkQueueInvariants(t, &q); err != nil {
		t.Fatal(err)
	}
	// Clear returns all of them sorted by nominal.
	as := q.Clear()
	if len(as) != 300 {
		t.Fatalf("cleared %d", len(as))
	}
	for i := 1; i < len(as); i++ {
		if as[i].Nominal < as[i-1].Nominal {
			t.Fatal("Clear not sorted by nominal")
		}
	}
}
