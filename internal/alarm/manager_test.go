package alarm

import (
	"testing"
	"testing/quick"

	"repro/internal/hw"
	"repro/internal/simclock"
)

// fakeHost is a minimal Host: waking takes a fixed latency and the device
// goes back to sleep when the test says so.
type fakeHost struct {
	clock   *simclock.Clock
	latency simclock.Duration
	awake   bool
	waking  bool
	session int
	onWake  []func()
	pending []func()
	wakes   int
}

func newFakeHost(c *simclock.Clock, latency simclock.Duration) *fakeHost {
	return &fakeHost{clock: c, latency: latency}
}

func (h *fakeHost) Awake() bool      { return h.awake }
func (h *fakeHost) Session() int     { return h.session }
func (h *fakeHost) OnWake(fn func()) { h.onWake = append(h.onWake, fn) }
func (h *fakeHost) Sleep()           { h.awake = false }
func (h *fakeHost) ExecuteWake(fn func()) {
	if h.awake {
		fn()
		return
	}
	h.pending = append(h.pending, fn)
	if h.waking {
		return
	}
	h.waking = true
	h.clock.After(h.latency, func() {
		h.waking = false
		h.awake = true
		h.session++
		h.wakes++
		for _, f := range h.onWake {
			f()
		}
		fns := h.pending
		h.pending = nil
		for _, f := range fns {
			f()
		}
	})
}

func setup(t *testing.T, p Policy, latency simclock.Duration) (*simclock.Clock, *fakeHost, *Manager, *[]Record) {
	t.Helper()
	c := simclock.New()
	h := newFakeHost(c, latency)
	m := NewManager(c, h, p)
	recs := &[]Record{}
	m.SetRecordFunc(func(r Record) { *recs = append(*recs, r) })
	return c, h, m, recs
}

func TestManagerOneShotDelivery(t *testing.T) {
	c, h, m, recs := setup(t, Native{}, 0)
	done := false
	a := &Alarm{ID: "a", App: "test", Repeat: OneShot, Nominal: simclock.Time(10 * sec),
		Window: 5 * sec, Grace: 5 * sec,
		OnDeliver: func(at simclock.Time) hw.Set { done = true; return hw.MakeSet(hw.Vibrator) }}
	if err := m.Set(a); err != nil {
		t.Fatal(err)
	}
	c.Run(simclock.Time(9 * sec))
	if done {
		t.Fatal("delivered early")
	}
	c.Run(simclock.Time(20 * sec))
	if !done {
		t.Fatal("not delivered")
	}
	if m.Pending() != 0 {
		t.Fatal("one-shot still queued")
	}
	if len(*recs) != 1 {
		t.Fatalf("records = %d", len(*recs))
	}
	r := (*recs)[0]
	if r.Delivered != simclock.Time(10*sec) || !r.Perceptible || r.HW != hw.MakeSet(hw.Vibrator) {
		t.Fatalf("record = %+v", r)
	}
	if h.wakes != 1 {
		t.Fatalf("wakes = %d", h.wakes)
	}
}

func TestManagerStaticGrid(t *testing.T) {
	c, _, m, recs := setup(t, Native{}, 0)
	a := &Alarm{ID: "s", Repeat: Static, Nominal: simclock.Time(10 * sec),
		Period: 10 * sec, Window: 0, Grace: 0,
		OnDeliver: func(at simclock.Time) hw.Set { return hw.MakeSet(hw.WiFi) }}
	if err := m.Set(a); err != nil {
		t.Fatal(err)
	}
	c.Run(simclock.Time(55 * sec))
	if len(*recs) != 5 {
		t.Fatalf("deliveries = %d, want 5", len(*recs))
	}
	for i, r := range *recs {
		want := simclock.Time((10 + 10*i) * int(sec))
		if r.Delivered != want {
			t.Fatalf("delivery %d at %v, want %v (static grid)", i, r.Delivered, want)
		}
	}
}

func TestManagerDynamicReappoints(t *testing.T) {
	c, h, m, recs := setup(t, Native{}, 2*sec) // 2 s wake latency
	a := &Alarm{ID: "d", Repeat: Dynamic, Nominal: simclock.Time(10 * sec),
		Period: 10 * sec, Window: 0, Grace: 0,
		OnDeliver: func(at simclock.Time) hw.Set { h.Sleep(); return hw.MakeSet(hw.WiFi) }}
	_ = h
	if err := m.Set(a); err != nil {
		t.Fatal(err)
	}
	c.Run(simclock.Time(40 * sec))
	// Deliveries at 12, 24, 36: each wake adds 2 s latency and the next
	// nominal is delivery + period.
	want := []simclock.Time{simclock.Time(12 * sec), simclock.Time(24 * sec), simclock.Time(36 * sec)}
	if len(*recs) != len(want) {
		t.Fatalf("deliveries = %d, want %d", len(*recs), len(want))
	}
	for i, r := range *recs {
		if r.Delivered != want[i] {
			t.Fatalf("delivery %d at %v, want %v (dynamic drift)", i, r.Delivered, want[i])
		}
	}
}

func TestManagerBatchedDeliveryAtLatestNominal(t *testing.T) {
	c, h, m, recs := setup(t, Native{}, 0)
	mk := func(id string, nom simclock.Duration) *Alarm {
		return &Alarm{ID: id, Repeat: Static, Nominal: simclock.Time(nom),
			Period: 1000 * sec, Window: 100 * sec, Grace: 100 * sec,
			OnDeliver: func(at simclock.Time) hw.Set { return hw.MakeSet(hw.WiFi) }}
	}
	m.Set(mk("a", 10*sec))
	m.Set(mk("b", 60*sec)) // windows [10,110] and [60,160] overlap → one entry
	c.Run(simclock.Time(200 * sec))
	if len(*recs) != 2 {
		t.Fatalf("deliveries = %d", len(*recs))
	}
	for _, r := range *recs {
		if r.Delivered != simclock.Time(60*sec) {
			t.Fatalf("batched delivery at %v, want 60s (latest nominal)", r.Delivered)
		}
		if r.EntrySize != 2 {
			t.Fatalf("EntrySize = %d", r.EntrySize)
		}
		if r.Session != 1 {
			t.Fatalf("session = %d, want shared session 1", r.Session)
		}
	}
	if h.wakes != 1 {
		t.Fatalf("wakes = %d, want 1 shared wakeup", h.wakes)
	}
}

func TestManagerLearnsHardware(t *testing.T) {
	c, _, m, _ := setup(t, Native{}, 0)
	a := &Alarm{ID: "l", Repeat: Static, Nominal: simclock.Time(5 * sec),
		Period: 10 * sec, Window: 0, Grace: 0,
		OnDeliver: func(at simclock.Time) hw.Set { return hw.MakeSet(hw.WPS) }}
	m.Set(a)
	if !a.Perceptible() {
		t.Fatal("unknown-HW alarm should start perceptible")
	}
	c.Run(simclock.Time(6 * sec))
	if !a.HWKnown || a.HW != hw.MakeSet(hw.WPS) {
		t.Fatalf("HW not learned: %v", a)
	}
	if a.Perceptible() {
		t.Fatal("WPS alarm still perceptible after learning")
	}
}

func TestManagerKindChangeRemovesStaleCopy(t *testing.T) {
	// Regression: re-registering an alarm with a changed Kind must
	// remove the old instance from the other queue. The seed only
	// searched QueueFor(a.Kind), so the stale wakeup copy survived a
	// wakeup→non-wakeup re-registration and double-delivered.
	for _, realign := range []bool{true, false} {
		c, h, m, recs := setup(t, Native{}, 0)
		m.SetRealign(realign)
		h.awake = true
		h.session = 1
		mk := func(k Kind) *Alarm {
			return &Alarm{ID: "kc", Kind: k, Repeat: Static, Nominal: simclock.Time(10 * sec),
				Period: 100 * sec, Window: 10 * sec, Grace: 10 * sec,
				OnDeliver: func(simclock.Time) hw.Set { return hw.MakeSet(hw.WiFi) }}
		}
		m.Set(mk(Wakeup))
		m.Set(mk(NonWakeup))
		if got := m.Pending(); got != 1 {
			t.Fatalf("realign=%t: pending = %d, want 1 (stale copy must be removed)", realign, got)
		}
		if m.QueueFor(Wakeup).Find("kc") != nil {
			t.Fatalf("realign=%t: stale wakeup copy survived kind change", realign)
		}
		c.Run(simclock.Time(15 * sec))
		if len(*recs) != 1 {
			t.Fatalf("realign=%t: deliveries = %d, want 1 (no double delivery)", realign, len(*recs))
		}
		if (*recs)[0].Kind != NonWakeup {
			t.Fatalf("realign=%t: delivered kind = %v, want non-wakeup", realign, (*recs)[0].Kind)
		}
	}
}

// rogueIndex is a policy returning a fixed (possibly out-of-range)
// entry index, as a buggy user-supplied policy might.
type rogueIndex struct{ idx int }

func (rogueIndex) Name() string                                 { return "ROGUE" }
func (p rogueIndex) Select([]*Entry, *Alarm, simclock.Time) int { return p.idx }

func TestQueueInsertOutOfRangePolicyFallsBack(t *testing.T) {
	// Regression: the seed panicked on an out-of-range policy index,
	// crashing the whole simulation on a buggy custom policy. The
	// documented fallback now opens a new entry.
	for _, idx := range []int{-2, 1, 7, 1 << 30} {
		var q Queue
		a := &Alarm{ID: "r", Repeat: OneShot, Nominal: simclock.Time(5 * sec)}
		e := q.Insert(a, rogueIndex{idx}, 0)
		if e == nil || e.Len() != 1 || q.AlarmCount() != 1 {
			t.Fatalf("idx=%d: fallback entry not created: %v", idx, e)
		}
		if q.Find("r") == nil {
			t.Fatalf("idx=%d: alarm not indexed after fallback", idx)
		}
	}
}

func TestQueueInsertReplacesDuplicateID(t *testing.T) {
	// The indexed queue never holds two alarms with one ID: inserting a
	// queued ID replaces the old instance.
	var q Queue
	mk := func(nom simclock.Duration) *Alarm {
		return &Alarm{ID: "d", Repeat: OneShot, Nominal: simclock.Time(nom)}
	}
	q.Insert(mk(10*sec), NoAlign{}, 0)
	q.Insert(mk(50*sec), NoAlign{}, 0)
	if q.AlarmCount() != 1 {
		t.Fatalf("alarms = %d, want replacement", q.AlarmCount())
	}
	if got := q.Find("d").Nominal; got != simclock.Time(50*sec) {
		t.Fatalf("nominal = %v, want the newer instance", got)
	}
}

func TestManagerRejectsInvalid(t *testing.T) {
	_, _, m, _ := setup(t, Native{}, 0)
	if err := m.Set(&Alarm{ID: ""}); err == nil {
		t.Fatal("accepted invalid alarm")
	}
	if err := m.Set(&Alarm{ID: "p", Repeat: OneShot, Nominal: -5}); err == nil {
		t.Fatal("accepted past nominal")
	}
}

func TestManagerReinsertRealigns(t *testing.T) {
	c, _, m, _ := setup(t, Native{}, 0)
	mk := func(id string, nom simclock.Duration) *Alarm {
		return &Alarm{ID: id, Repeat: Static, Nominal: simclock.Time(nom),
			Period: 1000 * sec, Window: 100 * sec, Grace: 100 * sec}
	}
	m.Set(mk("a", 10*sec))
	m.Set(mk("b", 200*sec))
	// Re-register "a" at a nominal that overlaps b: with realignment the
	// queue is rebuilt and they batch.
	m.Set(mk("a", 150*sec))
	q := m.QueueFor(Wakeup)
	if q.Len() != 1 || q.Head().Len() != 2 {
		t.Fatalf("realign produced %d entries", q.Len())
	}
	_ = c
}

func TestManagerReinsertWithoutRealign(t *testing.T) {
	_, _, m, _ := setup(t, Native{}, 0)
	m.SetRealign(false)
	mk := func(id string, nom simclock.Duration) *Alarm {
		return &Alarm{ID: id, Repeat: Static, Nominal: simclock.Time(nom),
			Period: 1000 * sec, Window: 10 * sec, Grace: 10 * sec}
	}
	m.Set(mk("a", 10*sec))
	m.Set(mk("b", 200*sec))
	m.Set(mk("a", 500*sec))
	q := m.QueueFor(Wakeup)
	if q.AlarmCount() != 2 {
		t.Fatalf("alarms = %d, want duplicate replaced", q.AlarmCount())
	}
	if q.Find("a").Nominal != simclock.Time(500*sec) {
		t.Fatal("old instance survived")
	}
}

func TestManagerNonWakeupWaitsForWake(t *testing.T) {
	c, h, m, recs := setup(t, Native{}, 0)
	nw := &Alarm{ID: "nw", Kind: NonWakeup, Repeat: Static, Nominal: simclock.Time(10 * sec),
		Period: 500 * sec, Window: 0, Grace: 0,
		OnDeliver: func(at simclock.Time) hw.Set { return hw.MakeSet(hw.WiFi) }}
	m.Set(nw)
	c.Run(simclock.Time(100 * sec))
	if len(*recs) != 0 {
		t.Fatal("non-wakeup alarm woke the device")
	}
	if h.wakes != 0 {
		t.Fatalf("wakes = %d, want 0", h.wakes)
	}
	// A wakeup alarm at t=150 wakes the device; the pending non-wakeup
	// alarm must be flushed in the same session.
	w := &Alarm{ID: "w", Repeat: OneShot, Nominal: simclock.Time(150 * sec),
		OnDeliver: func(at simclock.Time) hw.Set { return hw.MakeSet(hw.WiFi) }}
	m.Set(w)
	c.Run(simclock.Time(200 * sec))
	if len(*recs) != 2 {
		t.Fatalf("deliveries = %d, want flushed non-wakeup + wakeup", len(*recs))
	}
	for _, r := range *recs {
		if r.Session != 1 {
			t.Fatalf("both deliveries should share session 1, got %+v", r)
		}
	}
}

func TestManagerNonWakeupDeliversWhileAwake(t *testing.T) {
	c, h, m, recs := setup(t, Native{}, 0)
	h.awake = true
	h.session = 1
	nw := &Alarm{ID: "nw", Kind: NonWakeup, Repeat: OneShot, Nominal: simclock.Time(10 * sec),
		OnDeliver: func(at simclock.Time) hw.Set { return hw.MakeSet(hw.WiFi) }}
	m.Set(nw)
	c.Run(simclock.Time(20 * sec))
	if len(*recs) != 1 || (*recs)[0].Delivered != simclock.Time(10*sec) {
		t.Fatalf("awake non-wakeup delivery: %+v", *recs)
	}
}

func TestNormalizedDelay(t *testing.T) {
	r := Record{WindowEnd: simclock.Time(100 * sec), Delivered: simclock.Time(90 * sec), Period: 200 * sec}
	if r.NormalizedDelay() != 0 {
		t.Fatal("in-window delivery has nonzero delay")
	}
	r.Delivered = simclock.Time(150 * sec)
	if got := r.NormalizedDelay(); got != 0.25 {
		t.Fatalf("NormalizedDelay = %v, want 0.25", got)
	}
	r.Period = 0
	if r.NormalizedDelay() != 0 {
		t.Fatal("zero-period delay should be 0")
	}
}

// Property: under NATIVE with zero wake latency, every wakeup alarm is
// delivered within its window interval (the paper's delivery-expectation
// guarantee for the native policy).
func TestPropertyNativeDeliversInWindow(t *testing.T) {
	prop := func(seeds []uint8) bool {
		c := simclock.New()
		h := newFakeHost(c, 0)
		m := NewManager(c, h, Native{})
		ok := true
		var recs []Record
		m.SetRecordFunc(func(r Record) { recs = append(recs, r) })
		for i, s := range seeds {
			period := simclock.Duration(30+int(s)%200) * sec
			alpha := float64(int(s)%4) * 0.25 // 0, .25, .5, .75
			win := simclock.Duration(float64(period) * alpha)
			rep := Static
			if s%2 == 0 {
				rep = Dynamic
			}
			a := &Alarm{
				ID: string(rune('a'+i%26)) + string(rune('0'+i/26%10)), Repeat: rep,
				Nominal: simclock.Time(simclock.Duration(int(s)%60) * sec),
				Period:  period, Window: win, Grace: win,
				OnDeliver: func(at simclock.Time) hw.Set { h.Sleep(); return hw.MakeSet(hw.WiFi) },
			}
			if err := m.Set(a); err != nil {
				return false
			}
		}
		c.Run(simclock.Time(simclock.Hour))
		for _, r := range recs {
			if r.Delivered > r.WindowEnd {
				ok = false
			}
			if r.Delivered < r.Nominal {
				ok = false // never delivered before its nominal time
			}
		}
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestManagerStaticSkipsMissedPeriods(t *testing.T) {
	// A non-wakeup static alarm missing several periods while the device
	// sleeps catches up to the next future nominal (one delivery, not a
	// burst), like Android's setRepeating.
	c, h, m, recs := setup(t, Native{}, 0)
	nw := &Alarm{ID: "nw", Kind: NonWakeup, Repeat: Static, Nominal: simclock.Time(10 * sec),
		Period: 10 * sec, Window: 0, Grace: 0,
		OnDeliver: func(at simclock.Time) hw.Set { return hw.MakeSet(hw.WiFi) }}
	m.Set(nw)
	// Device sleeps until t=95 s: nine nominals pass.
	c.Schedule(simclock.Time(95*sec), func() { h.ExecuteWake(func() {}) })
	c.Run(simclock.Time(99 * sec))
	if len(*recs) != 1 {
		t.Fatalf("deliveries = %d, want 1 catch-up delivery", len(*recs))
	}
	if (*recs)[0].Delivered != simclock.Time(95*sec) {
		t.Fatalf("catch-up at %v", (*recs)[0].Delivered)
	}
	// The reinserted nominal is the next grid point after now (100 s).
	if got := m.QueueFor(NonWakeup).Find("nw").Nominal; got != simclock.Time(100*sec) {
		t.Fatalf("next nominal = %v, want 100s", got)
	}
}

func TestManagerOverdueEntryDeliversImmediately(t *testing.T) {
	// Re-registering an alarm whose duplicate sits in an overdue batch
	// must not schedule into the past.
	c, h, m, recs := setup(t, Native{}, 0)
	h.awake = true
	h.session = 1
	a := &Alarm{ID: "a", Repeat: Static, Nominal: simclock.Time(10 * sec),
		Period: 1000 * sec, Window: 500 * sec, Grace: 500 * sec,
		OnDeliver: func(simclock.Time) hw.Set { return hw.MakeSet(hw.WiFi) }}
	b := &Alarm{ID: "b", Repeat: Static, Nominal: simclock.Time(400 * sec),
		Period: 1000 * sec, Window: 500 * sec, Grace: 500 * sec,
		OnDeliver: func(simclock.Time) hw.Set { return hw.MakeSet(hw.WiFi) }}
	m.Set(a)
	m.Set(b) // batch delivers at 400 s (latest nominal)
	c.Run(simclock.Time(100 * sec))
	// Re-register b for much later: realignment reinserts "a", whose
	// nominal (10 s) is already past. It must deliver promptly, not
	// crash or stall.
	b2 := *b
	b2.Nominal = simclock.Time(2000 * sec)
	if err := m.Set(&b2); err != nil {
		t.Fatal(err)
	}
	c.Run(simclock.Time(150 * sec))
	found := false
	for _, r := range *recs {
		if r.AlarmID == "a" && r.Delivered == simclock.Time(100*sec) {
			found = true
		}
	}
	if !found {
		t.Fatalf("overdue alarm not delivered immediately: %v", *recs)
	}
}

func TestManagerEntrySeqGroupsBatches(t *testing.T) {
	c, _, m, recs := setup(t, Native{}, 0)
	mk := func(id string, nom simclock.Duration) *Alarm {
		return &Alarm{ID: id, Repeat: OneShot, Nominal: simclock.Time(nom),
			Window: 100 * sec, Grace: 100 * sec,
			OnDeliver: func(simclock.Time) hw.Set { return hw.MakeSet(hw.WiFi) }}
	}
	m.Set(mk("a", 10*sec))
	m.Set(mk("b", 50*sec)) // batches with a
	m.Set(mk("c", 500*sec))
	c.Run(simclock.Time(1000 * sec))
	if len(*recs) != 3 {
		t.Fatalf("records = %d", len(*recs))
	}
	if (*recs)[0].EntrySeq != (*recs)[1].EntrySeq {
		t.Fatal("batched alarms have different EntrySeq")
	}
	if (*recs)[2].EntrySeq == (*recs)[0].EntrySeq {
		t.Fatal("separate entries share EntrySeq")
	}
}

// awakeHost is a Host that is always awake: ExecuteWake runs fn at once,
// so it allocates nothing itself.
type awakeHost struct{}

func (awakeHost) Awake() bool           { return true }
func (awakeHost) Session() int          { return 1 }
func (awakeHost) OnWake(func())         {}
func (awakeHost) ExecuteWake(fn func()) { fn() }

// TestManagerDeliveryCycleAllocatesNothing: the manager's timer callbacks
// are bound once, popped entries are recycled and the due buffer reused,
// so once a period has filled the pools, delivering and reinserting a
// batch allocates nothing.
func TestManagerDeliveryCycleAllocatesNothing(t *testing.T) {
	c := simclock.New()
	m := NewManager(c, awakeHost{}, Native{})
	delivered := 0
	m.SetRecordFunc(func(Record) { delivered++ })
	wifi := func(simclock.Time) hw.Set { return hw.MakeSet(hw.WiFi) }
	for i, id := range []string{"a", "b", "c"} {
		a := &Alarm{ID: id, Repeat: Static, Nominal: simclock.Time(simclock.Duration(10+i) * sec),
			Period: 60 * sec, Window: 30 * sec, Grace: 30 * sec, OnDeliver: wifi}
		if err := m.Set(a); err != nil {
			t.Fatal(err)
		}
	}
	period := func() { c.Run(c.Now().Add(60 * sec)) }
	if n := testing.AllocsPerRun(20, period); n != 0 {
		t.Fatalf("delivery period allocates %v objects, want 0", n)
	}
	if delivered != 3*21 || m.Pending() != 3 {
		t.Fatalf("delivered %d, pending %d; want %d, 3", delivered, m.Pending(), 3*21)
	}
}
