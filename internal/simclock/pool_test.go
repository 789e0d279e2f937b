package simclock

import (
	"math/rand"
	"testing"
)

// These tests pin the event pool's safety semantics: a Timer handle that
// outlives its event (fired or cancelled) must be inert forever, even
// after the underlying Event object has been recycled into a live timer.

// TestPoolReusesEvents asserts the free list actually recycles: the
// object backing a fired event backs the next scheduled one.
func TestPoolReusesEvents(t *testing.T) {
	c := New()
	t1 := c.Schedule(1, func() {})
	c.Step()
	t2 := c.Schedule(2, func() {})
	if t1.e != t2.e {
		t.Fatal("fired event was not recycled into the next Schedule")
	}
	if t1.gen == t2.gen {
		t.Fatal("recycled event kept its generation — stale handles would alias")
	}
}

// TestCancelAfterFire: cancelling a handle whose event already fired must
// not touch the recycled object's new incarnation.
func TestCancelAfterFire(t *testing.T) {
	c := New()
	stale := c.Schedule(1, func() {})
	c.Step()
	fired := false
	live := c.Schedule(2, func() { fired = true })
	if live.e != stale.e {
		t.Fatal("test premise broken: pool did not reuse the event")
	}
	c.Cancel(stale) // must be a no-op on the new incarnation
	if !live.Pending() {
		t.Fatal("stale Cancel killed a live recycled timer")
	}
	c.Run(10)
	if !fired {
		t.Fatal("live timer did not fire after stale Cancel")
	}
	// And cancelling the stale handle after its object fired twice is
	// still inert.
	c.Cancel(stale)
}

// TestDoubleCancel: cancelling twice is a no-op, including when the
// object has been recycled in between.
func TestDoubleCancel(t *testing.T) {
	c := New()
	stale := c.Schedule(5, func() { t.Fatal("cancelled event fired") })
	c.Cancel(stale)
	c.Cancel(stale)
	live := c.Schedule(7, func() {})
	if live.e != stale.e {
		t.Fatal("test premise broken: pool did not reuse the event")
	}
	c.Cancel(stale)
	if !live.Pending() {
		t.Fatal("double-cancel of a stale handle killed a live timer")
	}
	c.Run(10)
}

// TestPendingOnRecycled: a stale handle must report !Pending even while
// its object backs a live (pending) timer.
func TestPendingOnRecycled(t *testing.T) {
	c := New()
	stale := c.Schedule(1, func() {})
	c.Run(1)
	if stale.Pending() {
		t.Fatal("fired handle reports pending")
	}
	live := c.Schedule(3, func() {})
	if live.e != stale.e {
		t.Fatal("test premise broken: pool did not reuse the event")
	}
	if stale.Pending() {
		t.Fatal("stale handle resurrected by its object's reuse")
	}
	if !live.Pending() {
		t.Fatal("live recycled timer not pending")
	}
	if stale.At() != 0 {
		t.Fatalf("stale At() = %v, want 0", stale.At())
	}
	if live.At() != 3 {
		t.Fatalf("live At() = %v, want 3", live.At())
	}
}

// TestResetInvalidatesPending: a reset clock is at time zero with an
// empty queue, the events pending at the reset never fire, and their
// stale handles stay inert once later Schedules reuse the objects.
func TestResetInvalidatesPending(t *testing.T) {
	c := New()
	stale := c.Schedule(50, func() { t.Fatal("event pending at Reset fired") })
	c.Run(10)
	c.Reset()
	if c.Now() != 0 || c.Len() != 0 || stale.Pending() {
		t.Fatalf("after Reset: now %v, %d pending, stale pending %v", c.Now(), c.Len(), stale.Pending())
	}
	fired := false
	live := c.Schedule(50, func() { fired = true })
	if live.e != stale.e {
		t.Fatal("test premise broken: Reset did not recycle the pending event")
	}
	c.Cancel(stale)
	c.Run(100)
	if !fired {
		t.Fatal("stale Cancel after Reset killed a live timer")
	}
}

// TestReseedMatchesRand: a source reseeded after use draws the stream a
// fresh source of that seed draws, and so does one handed out by Draw.
func TestReseedMatchesRand(t *testing.T) {
	used := Rand(3)
	used.Perm(40)
	used = Reseed(used, 7)
	fresh := Rand(7)
	for i := 0; i < 100; i++ {
		if a, b := used.Float64(), fresh.Float64(); a != b {
			t.Fatalf("draw %d: reseeded %v, fresh %v", i, a, b)
		}
	}
	Draw(9, func(r *rand.Rand) { r.Perm(40) })
	var got, want []int
	Draw(11, func(r *rand.Rand) { got = r.Perm(40) })
	want = Rand(11).Perm(40)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Draw(11) diverged from Rand(11) at %d", i)
		}
	}
}

// replaySchedule drives one deterministic random workload — rounds of
// schedule / nested-schedule / cancel / partial Run — and returns the IDs
// in firing order. All randomness is drawn up front per op from the seed,
// never inside callbacks, so two clocks given the same seed execute the
// same op sequence and must fire identically.
func replaySchedule(c *Clock, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	var fired []int
	var handles []Timer
	id := 0
	for round := 0; round < 8; round++ {
		for op := 0; op < 32; op++ {
			switch k := rng.Intn(10); {
			case k < 6: // schedule a leaf event
				myID := id
				id++
				at := c.Now() + Time(rng.Intn(500))
				handles = append(handles, c.Schedule(at, func() { fired = append(fired, myID) }))
			case k < 8: // schedule an event that schedules a child on fire
				myID := id
				id++
				childID := id
				id++
				at := c.Now() + Time(rng.Intn(500))
				childOff := Duration(rng.Intn(300))
				handles = append(handles, c.Schedule(at, func() {
					fired = append(fired, myID)
					c.After(childOff, func() { fired = append(fired, childID) })
				}))
			default: // cancel a random previously issued handle
				if len(handles) > 0 {
					c.Cancel(handles[rng.Intn(len(handles))])
				}
			}
		}
		c.Run(c.Now() + Time(rng.Intn(400)))
	}
	c.Run(c.Now() + 2000) // drain stragglers (child events can trail)
	return fired
}

// TestPropertyPooledMatchesUnpooled: for random schedules with
// cancellations and nested scheduling, the pooled kernel fires exactly
// the sequence an unpooled kernel fires.
func TestPropertyPooledMatchesUnpooled(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		pooled := New()
		unpooled := New()
		unpooled.nopool = true
		got := replaySchedule(pooled, seed)
		want := replaySchedule(unpooled, seed)
		if len(got) != len(want) {
			t.Fatalf("seed %d: pooled fired %d events, unpooled %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: firing order diverged at %d: pooled %d, unpooled %d",
					seed, i, got[i], want[i])
			}
		}
		if pooled.Len() != 0 || unpooled.Len() != 0 {
			t.Fatalf("seed %d: undrained events (pooled %d, unpooled %d)",
				seed, pooled.Len(), unpooled.Len())
		}
	}
}

// FuzzClockPool drives the same pooled-vs-unpooled equivalence from
// fuzzed seeds, letting the fuzzer hunt for a schedule shape the fixed
// property sweep misses.
func FuzzClockPool(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		pooled := New()
		unpooled := New()
		unpooled.nopool = true
		got := replaySchedule(pooled, seed)
		want := replaySchedule(unpooled, seed)
		if len(got) != len(want) {
			t.Fatalf("pooled fired %d events, unpooled %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("firing order diverged at %d: pooled %d, unpooled %d", i, got[i], want[i])
			}
		}
	})
}
