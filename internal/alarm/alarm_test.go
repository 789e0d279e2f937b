package alarm

import (
	"strings"
	"testing"

	"repro/internal/hw"
	"repro/internal/simclock"
)

const sec = simclock.Second

func TestValidate(t *testing.T) {
	valid := func() *Alarm {
		return &Alarm{ID: "a", Repeat: Static, Period: 100 * sec, Window: 10 * sec, Grace: 50 * sec}
	}
	if err := valid().Validate(); err != nil {
		t.Fatalf("valid alarm rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Alarm)
	}{
		{"empty ID", func(a *Alarm) { a.ID = "" }},
		{"negative window", func(a *Alarm) { a.Window = -1 }},
		{"grace below window", func(a *Alarm) { a.Grace = 5 * sec }},
		{"one-shot with period", func(a *Alarm) { a.Repeat = OneShot }},
		{"repeating without period", func(a *Alarm) { a.Period = 0; a.Window = 0; a.Grace = 0 }},
		{"window >= period", func(a *Alarm) { a.Window = 100 * sec; a.Grace = 100 * sec }},
		{"grace >= period", func(a *Alarm) { a.Grace = 100 * sec }},
	}
	for _, tc := range cases {
		a := valid()
		tc.mutate(a)
		if err := a.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid alarm %v", tc.name, a)
		}
	}
	oneshot := &Alarm{ID: "o", Repeat: OneShot, Window: 10 * sec, Grace: 10 * sec}
	if err := oneshot.Validate(); err != nil {
		t.Fatalf("valid one-shot rejected: %v", err)
	}
}

func TestPerceptibility(t *testing.T) {
	// One-shot alarms are always perceptible (§3.1.2 footnote 5).
	a := &Alarm{ID: "a", Repeat: OneShot, HW: hw.MakeSet(hw.WiFi), HWKnown: true}
	if !a.Perceptible() {
		t.Fatal("one-shot alarm not perceptible")
	}
	// Unknown hardware set ⇒ perceptible.
	b := &Alarm{ID: "b", Repeat: Static, Period: 10 * sec}
	if !b.Perceptible() {
		t.Fatal("unknown-HW alarm not perceptible")
	}
	// Known imperceptible hardware.
	b.HW, b.HWKnown = hw.MakeSet(hw.WiFi), true
	if b.Perceptible() {
		t.Fatal("Wi-Fi alarm perceptible")
	}
	// Known perceptible hardware.
	b.HW = hw.MakeSet(hw.Vibrator)
	if !b.Perceptible() {
		t.Fatal("vibrator alarm not perceptible")
	}
	// Known empty set is imperceptible (CPU-only task).
	c := &Alarm{ID: "c", Repeat: Static, Period: 10 * sec, HWKnown: true}
	if c.Perceptible() {
		t.Fatal("known CPU-only alarm perceptible")
	}
}

func TestAlarmStrings(t *testing.T) {
	a := &Alarm{ID: "x", App: "app", Kind: NonWakeup, Repeat: Dynamic, Period: sec}
	s := a.String()
	for _, want := range []string{"x", "app", "non-wakeup", "dynamic"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
	if Wakeup.String() != "wakeup" || OneShot.String() != "one-shot" || Static.String() != "static" {
		t.Fatal("enum String wrong")
	}
	if Kind(9).String() == "" || Repeat(9).String() == "" {
		t.Fatal("out-of-range enum String empty")
	}
}

func mkAlarm(id string, nominal, period, window, grace simclock.Duration, set hw.Set) *Alarm {
	a := &Alarm{
		ID: id, Repeat: Static,
		Nominal: simclock.Time(nominal),
		Period:  period, Window: window, Grace: grace,
		HW: set, HWKnown: true,
	}
	return a
}

func TestEntryAttributes(t *testing.T) {
	a := mkAlarm("a", 10*sec, 100*sec, 20*sec, 50*sec, hw.MakeSet(hw.WiFi))
	b := mkAlarm("b", 25*sec, 100*sec, 20*sec, 60*sec, hw.MakeSet(hw.WPS))
	e := newEntry(a)
	e.add(b)
	if e.WinStart != simclock.Time(25*sec) || e.WinEnd != simclock.Time(30*sec) {
		t.Fatalf("window = [%v,%v]", e.WinStart, e.WinEnd)
	}
	if e.GraceStart != simclock.Time(25*sec) || e.GraceEnd != simclock.Time(60*sec) {
		t.Fatalf("grace = [%v,%v]", e.GraceStart, e.GraceEnd)
	}
	if e.HW != hw.MakeSet(hw.WiFi, hw.WPS) {
		t.Fatalf("HW = %v, want union", e.HW)
	}
	if e.Perceptible {
		t.Fatal("all-imperceptible entry reported perceptible")
	}
	if e.DeliveryTime() != e.GraceStart {
		t.Fatalf("imperceptible delivery = %v, want grace start", e.DeliveryTime())
	}
}

func TestEntryPerceptibleDelivery(t *testing.T) {
	a := mkAlarm("a", 10*sec, 100*sec, 20*sec, 50*sec, hw.MakeSet(hw.Vibrator))
	e := newEntry(a)
	if !e.Perceptible {
		t.Fatal("vibrator entry not perceptible")
	}
	if e.DeliveryTime() != e.WinStart {
		t.Fatal("perceptible entry must deliver at window start")
	}
}

func TestEntryEmptyWindowIntersection(t *testing.T) {
	// Two imperceptible alarms whose windows don't overlap but graces do
	// (the SIMTY medium-time-similarity case).
	a := mkAlarm("a", 0, 100*sec, 5*sec, 80*sec, hw.MakeSet(hw.WiFi))
	b := mkAlarm("b", 20*sec, 100*sec, 5*sec, 80*sec, hw.MakeSet(hw.WiFi))
	e := newEntry(a)
	e.add(b)
	if e.WinEnd >= e.WinStart {
		t.Fatalf("window should be empty, got [%v,%v]", e.WinStart, e.WinEnd)
	}
	if e.WindowOverlaps(0, simclock.Time(1000*sec)) {
		t.Fatal("empty window must not overlap anything")
	}
	if !e.GraceOverlaps(simclock.Time(30*sec), simclock.Time(30*sec)) {
		t.Fatal("grace overlap lost")
	}
	if e.DeliveryTime() != simclock.Time(20*sec) {
		t.Fatalf("delivery = %v, want latest nominal", e.DeliveryTime())
	}
}

func TestEntryRemoveRecomputes(t *testing.T) {
	a := mkAlarm("a", 10*sec, 100*sec, 20*sec, 50*sec, hw.MakeSet(hw.WiFi))
	b := mkAlarm("b", 25*sec, 100*sec, 20*sec, 60*sec, hw.MakeSet(hw.WPS))
	e := newEntry(a)
	e.add(b)
	if !e.remove("b") {
		t.Fatal("remove failed")
	}
	if e.HW != hw.MakeSet(hw.WiFi) || e.WinStart != simclock.Time(10*sec) {
		t.Fatalf("attributes not recomputed: %v", e)
	}
	if e.remove("zzz") {
		t.Fatal("removed nonexistent alarm")
	}
}

func TestEntryString(t *testing.T) {
	e := newEntry(mkAlarm("a", 0, 100*sec, 10*sec, 20*sec, hw.MakeSet(hw.WiFi)))
	if !strings.Contains(e.String(), "entry[a]") {
		t.Fatalf("String = %q", e.String())
	}
}

func TestNativePolicyOverlap(t *testing.T) {
	var q Queue
	p := Native{}
	a := mkAlarm("a", 0, 300*sec, 100*sec, 100*sec, hw.MakeSet(hw.WiFi))
	q.Insert(a, p, 0)
	// b's window [50,150] overlaps a's [0,100] → same entry.
	b := mkAlarm("b", 50*sec, 300*sec, 100*sec, 100*sec, hw.MakeSet(hw.WPS))
	q.Insert(b, p, 0)
	if q.Len() != 1 || q.Head().Len() != 2 {
		t.Fatalf("expected one 2-alarm entry, got %d entries", q.Len())
	}
	// c's window [200,250] does not overlap the entry's [50,100] → new entry.
	c := mkAlarm("c", 200*sec, 300*sec, 50*sec, 50*sec, hw.MakeSet(hw.WiFi))
	q.Insert(c, p, 0)
	if q.Len() != 2 {
		t.Fatalf("expected a second entry, got %d", q.Len())
	}
}

func TestNativePolicyFirstFound(t *testing.T) {
	var q Queue
	p := Native{}
	q.Insert(mkAlarm("a", 0, 1000*sec, 100*sec, 100*sec, hw.MakeSet(hw.WiFi)), p, 0)
	q.Insert(mkAlarm("b", 150*sec, 1000*sec, 100*sec, 100*sec, hw.MakeSet(hw.WiFi)), p, 0)
	// c overlaps both entries; NATIVE picks the first in queue order.
	c := mkAlarm("c", 80*sec, 1000*sec, 200*sec, 200*sec, hw.MakeSet(hw.WPS))
	q.Insert(c, p, 0)
	if q.Len() != 2 {
		t.Fatalf("entries = %d, want 2", q.Len())
	}
	if q.Entries()[0].Len() != 2 || !strings.Contains(q.Entries()[0].String(), "c") {
		t.Fatalf("c not placed in first entry: %v / %v", q.Entries()[0], q.Entries()[1])
	}
}

func TestNativeIgnoresGrace(t *testing.T) {
	var q Queue
	p := Native{}
	q.Insert(mkAlarm("a", 0, 1000*sec, 10*sec, 900*sec, hw.MakeSet(hw.WiFi)), p, 0)
	// b's grace overlaps a's but windows don't: NATIVE must not batch.
	q.Insert(mkAlarm("b", 100*sec, 1000*sec, 10*sec, 900*sec, hw.MakeSet(hw.WiFi)), p, 0)
	if q.Len() != 2 {
		t.Fatalf("NATIVE must not batch on grace overlap: %d entries, want 2", q.Len())
	}
}

func TestNativeExactAlarmsAreStandalone(t *testing.T) {
	var q Queue
	p := Native{}
	// An exact alarm never joins an existing overlapping entry...
	q.Insert(mkAlarm("a", 0, 1000*sec, 100*sec, 100*sec, hw.MakeSet(hw.WiFi)), p, 0)
	exact := mkAlarm("x", 50*sec, 1000*sec, 0, 0, hw.MakeSet(hw.WiFi))
	q.Insert(exact, p, 0)
	if q.Len() != 2 {
		t.Fatalf("exact alarm joined a batch: %d entries", q.Len())
	}
	// ...and no alarm joins an exact alarm's entry, even with a window
	// covering its point.
	q2 := Queue{}
	q2.Insert(mkAlarm("x", 50*sec, 1000*sec, 0, 0, hw.MakeSet(hw.WiFi)), p, 0)
	q2.Insert(mkAlarm("b", 0, 1000*sec, 100*sec, 100*sec, hw.MakeSet(hw.WiFi)), p, 0)
	if q2.Len() != 2 {
		t.Fatalf("alarm coalesced into a standalone entry: %d entries", q2.Len())
	}
	// Two exact alarms at the same instant remain separate entries.
	q3 := Queue{}
	q3.Insert(mkAlarm("x1", 50*sec, 1000*sec, 0, 0, hw.MakeSet(hw.WiFi)), p, 0)
	q3.Insert(mkAlarm("x2", 50*sec, 1000*sec, 0, 0, hw.MakeSet(hw.WiFi)), p, 0)
	if q3.Len() != 2 {
		t.Fatalf("coincident exact alarms merged: %d entries", q3.Len())
	}
}

func TestEntryHasExact(t *testing.T) {
	e := newEntry(mkAlarm("a", 0, 1000*sec, 100*sec, 100*sec, hw.MakeSet(hw.WiFi)))
	if e.HasExact() {
		t.Fatal("windowed entry reports exact")
	}
	e.add(mkAlarm("x", 50*sec, 1000*sec, 0, 0, hw.MakeSet(hw.WiFi)))
	if !e.HasExact() {
		t.Fatal("entry with exact member not reported")
	}
}

func TestNoAlignPolicy(t *testing.T) {
	var q Queue
	p := NoAlign{}
	for i := 0; i < 5; i++ {
		q.Insert(mkAlarm(string(rune('a'+i)), 0, 100*sec, 50*sec, 50*sec, hw.MakeSet(hw.WiFi)), p, 0)
	}
	if q.Len() != 5 {
		t.Fatalf("NoAlign entries = %d, want 5", q.Len())
	}
	if (NoAlign{}).Name() != "NOALIGN" || (Native{}).Name() != "NATIVE" {
		t.Fatal("policy names wrong")
	}
}

func TestIntervalPolicyGrid(t *testing.T) {
	var q Queue
	p := Interval{Grid: 300 * sec}
	if p.Name() != "INTERVAL" {
		t.Fatalf("Name = %q", p.Name())
	}
	// Alarms at 10 s and 250 s share slot 0; 310 s goes to slot 1 —
	// window attributes are ignored entirely (even exact alarms batch).
	q.Insert(mkAlarm("a", 10*sec, 1000*sec, 0, 0, hw.MakeSet(hw.WiFi)), p, 0)
	q.Insert(mkAlarm("b", 250*sec, 1000*sec, 0, 0, hw.MakeSet(hw.WPS)), p, 0)
	q.Insert(mkAlarm("c", 310*sec, 1000*sec, 0, 0, hw.MakeSet(hw.WiFi)), p, 0)
	if q.Len() != 2 {
		t.Fatalf("entries = %d, want 2 grid slots", q.Len())
	}
	if q.Entries()[0].Len() != 2 || q.Entries()[1].Len() != 1 {
		t.Fatalf("slot sizes = %d/%d", q.Entries()[0].Len(), q.Entries()[1].Len())
	}
	// The slot entry delivers at the latest member nominal, still inside
	// the slot.
	if got := q.Entries()[0].DeliveryTime(); got != simclock.Time(250*sec) {
		t.Fatalf("slot delivery = %v", got)
	}
}

func TestIntervalPolicyDefaultGrid(t *testing.T) {
	var q Queue
	p := Interval{} // default 300 s
	q.Insert(mkAlarm("a", 10*sec, 1000*sec, 0, 0, 0), p, 0)
	q.Insert(mkAlarm("b", 299*sec, 1000*sec, 0, 0, 0), p, 0)
	if q.Len() != 1 {
		t.Fatalf("default grid did not batch: %d entries", q.Len())
	}
}

func TestQueueOrderingAndPopDue(t *testing.T) {
	var q Queue
	p := NoAlign{}
	q.Insert(mkAlarm("late", 300*sec, 1000*sec, 10*sec, 10*sec, 0), p, 0)
	q.Insert(mkAlarm("early", 100*sec, 1000*sec, 10*sec, 10*sec, 0), p, 0)
	q.Insert(mkAlarm("mid", 200*sec, 1000*sec, 10*sec, 10*sec, 0), p, 0)
	if q.Head().Alarms[0].ID != "early" {
		t.Fatalf("head = %v", q.Head())
	}
	due := q.PopDue(simclock.Time(250 * sec))
	if len(due) != 2 || due[0].Alarms[0].ID != "early" || due[1].Alarms[0].ID != "mid" {
		t.Fatalf("PopDue = %v", due)
	}
	if q.Len() != 1 || q.AlarmCount() != 1 {
		t.Fatalf("queue left with %d entries", q.Len())
	}
	if got := q.PopDue(simclock.Time(250 * sec)); len(got) != 0 {
		t.Fatalf("second PopDue = %v", got)
	}
}

func TestQueueRemoveFind(t *testing.T) {
	var q Queue
	p := Native{}
	a := mkAlarm("a", 0, 300*sec, 100*sec, 100*sec, hw.MakeSet(hw.WiFi))
	b := mkAlarm("b", 50*sec, 300*sec, 100*sec, 100*sec, hw.MakeSet(hw.WPS))
	q.Insert(a, p, 0)
	q.Insert(b, p, 0)
	if q.Find("b") != b || q.Find("zzz") != nil {
		t.Fatal("Find wrong")
	}
	if got := q.Remove("a"); got != a {
		t.Fatalf("Remove returned %v", got)
	}
	if q.Len() != 1 || q.Head().HW != hw.MakeSet(hw.WPS) {
		t.Fatal("entry attributes stale after removal")
	}
	if q.Remove("a") != nil {
		t.Fatal("double remove returned alarm")
	}
	q.Remove("b")
	if q.Len() != 0 || q.Head() != nil {
		t.Fatal("queue not empty")
	}
}

func TestQueueClearSortsByNominal(t *testing.T) {
	var q Queue
	p := NoAlign{}
	q.Insert(mkAlarm("b", 200*sec, 1000*sec, 10*sec, 10*sec, 0), p, 0)
	q.Insert(mkAlarm("a", 100*sec, 1000*sec, 10*sec, 10*sec, 0), p, 0)
	as := q.Clear()
	if q.Len() != 0 || len(as) != 2 || as[0].ID != "a" || as[1].ID != "b" {
		t.Fatalf("Clear = %v", as)
	}
}

func TestDozePolicyGrouping(t *testing.T) {
	p := Doze{Window: 900 * sec}
	if p.Name() != "DOZE" {
		t.Fatalf("Name = %q", p.Name())
	}
	var q Queue
	wifi := hw.MakeSet(hw.WiFi)
	// Two imperceptible alarms in the same 15-minute window merge even
	// though their windows and graces never overlap.
	q.Insert(mkAlarm("a", 100*sec, 10000*sec, 10*sec, 20*sec, wifi), p, 0)
	q.Insert(mkAlarm("b", 800*sec, 10000*sec, 10*sec, 20*sec, wifi), p, 0)
	if q.Len() != 1 {
		t.Fatalf("doze slots = %d, want 1", q.Len())
	}
	// A third in the next window gets a new slot.
	q.Insert(mkAlarm("c", 1000*sec, 10000*sec, 10*sec, 20*sec, wifi), p, 0)
	if q.Len() != 2 {
		t.Fatalf("doze slots = %d, want 2", q.Len())
	}
}

func TestDozeProtectsPerceptible(t *testing.T) {
	p := Doze{Window: 900 * sec}
	var q Queue
	spk := hw.MakeSet(hw.Speaker)
	wifi := hw.MakeSet(hw.WiFi)
	q.Insert(mkAlarm("imp", 100*sec, 10000*sec, 10*sec, 20*sec, wifi), p, 0)
	// A perceptible alarm in the same slot must NOT join the doze batch
	// (its window [200,300] doesn't overlap the entry's [100,110]).
	q.Insert(mkAlarm("perc", 200*sec, 10000*sec, 100*sec, 100*sec, spk), p, 0)
	if q.Len() != 2 {
		t.Fatalf("perceptible alarm dozed: %d entries", q.Len())
	}
	// And an imperceptible alarm never joins a perceptible entry under
	// DOZE.
	q2 := Queue{}
	q2.Insert(mkAlarm("perc", 100*sec, 10000*sec, 500*sec, 500*sec, spk), p, 0)
	q2.Insert(mkAlarm("imp", 200*sec, 10000*sec, 10*sec, 20*sec, wifi), p, 0)
	if q2.Len() != 2 {
		t.Fatalf("imperceptible joined perceptible doze entry: %d entries", q2.Len())
	}
	// Default window applies when zero.
	if (Doze{}).window() != DefaultDozeWindow {
		t.Fatal("default doze window wrong")
	}
}
