package core

import (
	"testing"
	"testing/quick"

	"repro/internal/alarm"
	"repro/internal/apps"
	"repro/internal/hw"
	"repro/internal/simclock"
)

// nightUntil builds a profile that is inactive in [0, from) and active
// for the rest of the day — test times below stay inside day one.
func nightUntil(from simclock.Duration) *apps.DayProfile {
	return &apps.DayProfile{Phases: []apps.Phase{
		{Name: "night", Start: 0, End: from, PushScale: 0.1, ScreenScale: 0.1},
		{Name: "day", Start: from, End: apps.Day, PushScale: 1, ScreenScale: 1, Active: true},
	}}
}

func TestUserAwareMatchesSimtyWhenApplicable(t *testing.T) {
	wifi := hw.MakeSet(hw.WiFi)
	// Grace-overlapping entry: SIMTY joins it, so the extension path
	// never runs — active or not.
	e0 := entryOf(imp("a", 400*sec, 1000*sec, 100*sec, 800*sec, wifi))
	n := imp("new", 150*sec, 1000*sec, 100*sec, 800*sec, wifi)
	u := NewUserAware(nightUntil(7 * simclock.Hour))
	if got, want := u.Select([]*alarm.Entry{e0}, n, 0), NewSimty().Select([]*alarm.Entry{e0}, n, 0); got != want {
		t.Fatalf("UserAware chose %d, SIMTY chose %d", got, want)
	}
}

func TestUserAwareExtendsOnlyWhenInactive(t *testing.T) {
	wifi := hw.MakeSet(hw.WiFi)
	// Entry at 2000 s, new alarm's grace ends at 950 s: no overlap, so
	// SIMTY refuses. The gap (1050 s) is inside DefaultNightExtend.
	mk := func() ([]*alarm.Entry, *alarm.Alarm) {
		e := entryOf(imp("a", 2000*sec, 10000*sec, 100*sec, 8000*sec, wifi))
		n := imp("new", 150*sec, 1000*sec, 100*sec, 800*sec, wifi)
		return []*alarm.Entry{e}, n
	}

	entries, n := mk()
	night := NewUserAware(nightUntil(23 * simclock.Hour)) // 2000 s is night
	if got := night.Select(entries, n, 0); got != 0 {
		t.Fatalf("inactive phase: UserAware chose %d, want 0 (extension join)", got)
	}

	entries, n = mk()
	day := NewUserAware(nightUntil(10 * simclock.Minute)) // 2000 s is active
	if got := day.Select(entries, n, 0); got != -1 {
		t.Fatalf("active phase: UserAware chose %d, want -1 (never extend)", got)
	}
}

func TestUserAwareExtensionBounded(t *testing.T) {
	wifi := hw.MakeSet(hw.WiFi)
	// Gap from the new alarm's grace end (950 s) to the entry's start
	// (10000 s) exceeds the 30-minute cap.
	e := entryOf(imp("a", 10000*sec, 100000*sec, 100*sec, 80000*sec, wifi))
	n := imp("new", 150*sec, 1000*sec, 100*sec, 800*sec, wifi)
	u := NewUserAware(nightUntil(23 * simclock.Hour))
	if got := u.Select([]*alarm.Entry{e}, n, 0); got != -1 {
		t.Fatalf("UserAware chose %d, want -1 (beyond DefaultNightExtend)", got)
	}
	// Members are bounded too: joining must not drag the resident alarm
	// more than DefaultNightExtend past its own grace end.
	e2 := entryOf(imp("b", 100*sec, 1000*sec, 50*sec, 200*sec, wifi)) // grace ends 300 s
	late := imp("late", 5000*sec, 50000*sec, 100*sec, 40000*sec, wifi)
	if got := u.Select([]*alarm.Entry{e2}, late, 0); got != -1 {
		t.Fatalf("UserAware chose %d, want -1 (member dragged beyond DefaultNightExtend)", got)
	}
}

func TestUserAwareNeverExtendsPerceptible(t *testing.T) {
	spk := hw.MakeSet(hw.Speaker)
	u := NewUserAware(nightUntil(23 * simclock.Hour))
	// Perceptible inserted alarm (one-shot) never extension-joins.
	e := entryOf(imp("a", 2000*sec, 10000*sec, 100*sec, 8000*sec, spk))
	p := &alarm.Alarm{ID: "p", Repeat: alarm.OneShot, Nominal: simclock.Time(150 * sec),
		Window: 100 * sec, Grace: 800 * sec, HW: spk, HWKnown: true}
	if got := u.Select([]*alarm.Entry{e}, p, 0); got != -1 {
		t.Fatalf("perceptible alarm extension-joined (%d)", got)
	}
	// Perceptible entry never accepts an extension join.
	pe := entryOf(&alarm.Alarm{ID: "pe", Repeat: alarm.OneShot, Nominal: simclock.Time(2000 * sec),
		Window: 100 * sec, Grace: 8000 * sec, HW: spk, HWKnown: true})
	n := imp("new", 150*sec, 1000*sec, 100*sec, 800*sec, spk)
	if got := u.Select([]*alarm.Entry{pe}, n, 0); got != -1 {
		t.Fatalf("perceptible entry extension-joined (%d)", got)
	}
}

// The quick.Check form of the satellite invariant: whenever UserAware
// joins an entry SIMTY refused, the joined delivery instant is in an
// inactive phase and within DefaultNightExtend of every member's grace
// end.
func TestUserAwareExtensionInvariantQuick(t *testing.T) {
	wifi := hw.MakeSet(hw.WiFi)
	day := nightUntil(7 * simclock.Hour)
	u := NewUserAware(day)
	prop := func(eNom, nNom uint32, eGrace, nGrace uint16) bool {
		e := entryOf(imp("a", simclock.Duration(eNom%86400)*sec, apps.Day,
			50*sec, simclock.Duration(eGrace)*sec, wifi))
		n := imp("new", simclock.Duration(nNom%86400)*sec, apps.Day,
			50*sec, simclock.Duration(nGrace)*sec, wifi)
		entries := []*alarm.Entry{e}
		got := u.Select(entries, n, 0)
		if got < 0 || NewSimty().Select(entries, n, 0) == got {
			return true // refused, or a plain SIMTY join
		}
		newStart := e.GraceStart
		if n.Nominal > newStart {
			newStart = n.Nominal
		}
		if day.ActiveAt(newStart) {
			return false
		}
		if newStart > n.GraceEnd().Add(DefaultNightExtend) {
			return false
		}
		for _, m := range e.Alarms {
			if newStart > m.GraceEnd().Add(DefaultNightExtend) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestAoIMatchesSimtyWhenFresh(t *testing.T) {
	wifi := hw.MakeSet(hw.WiFi)
	// Windows overlap at close nominals: delivery lag is far below the
	// half-period budget, so AOI and SIMTY agree.
	e := entryOf(imp("a", 120*sec, 1000*sec, 100*sec, 800*sec, wifi))
	n := imp("new", 150*sec, 1000*sec, 100*sec, 800*sec, wifi)
	if got, want := NewAoIAware().Select([]*alarm.Entry{e}, n, 0), NewSimty().Select([]*alarm.Entry{e}, n, 0); got != want {
		t.Fatalf("AOI chose %d, SIMTY chose %d", got, want)
	}
}

func TestAoIRejectsStaleJoin(t *testing.T) {
	wifi := hw.MakeSet(hw.WiFi)
	// Entry delivers at 700 s; the new alarm's nominal is 150 s with a
	// 1000 s period: lag 550 s > 500 s budget. SIMTY would join (grace
	// overlap), AOI refuses.
	e := entryOf(imp("a", 700*sec, 1000*sec, 100*sec, 900*sec, wifi))
	n := imp("new", 150*sec, 1000*sec, 100*sec, 900*sec, wifi)
	if got := NewSimty().Select([]*alarm.Entry{e}, n, 0); got != 0 {
		t.Fatalf("precondition: SIMTY chose %d, want 0", got)
	}
	if got := NewAoIAware().Select([]*alarm.Entry{e}, n, 0); got != -1 {
		t.Fatalf("AOI chose %d, want -1 (stale join)", got)
	}
	// Members are capped too: a later-nominal insert would drag the
	// resident alarm past its budget.
	e2 := entryOf(imp("b", 150*sec, 1000*sec, 100*sec, 900*sec, wifi))
	late := imp("late", 700*sec, 1000*sec, 100*sec, 900*sec, wifi)
	if got := NewAoIAware().Select([]*alarm.Entry{e2}, late, 0); got != -1 {
		t.Fatalf("AOI chose %d, want -1 (member dragged stale)", got)
	}
}

func TestAoIBudgetIsMaxOfWindowAndHalfPeriod(t *testing.T) {
	wifi := hw.MakeSet(hw.WiFi)
	// Window (700 s) wider than half the period (500 s): a 600 s lag is
	// inside the window and must be allowed.
	e := entryOf(imp("a", 750*sec, 1000*sec, 700*sec, 900*sec, wifi))
	n := imp("new", 150*sec, 1000*sec, 700*sec, 900*sec, wifi)
	if got := NewAoIAware().Select([]*alarm.Entry{e}, n, 0); got != 0 {
		t.Fatalf("AOI chose %d, want 0 (window-wide budget)", got)
	}
}

func TestAoINeverLooserThanSimty(t *testing.T) {
	wifi := hw.MakeSet(hw.WiFi)
	wps := hw.MakeSet(hw.WPS)
	sets := []hw.Set{wifi, wps}
	prop := func(eNom, nNom uint16, eHW, nHW bool) bool {
		pick := func(b bool) hw.Set {
			if b {
				return sets[0]
			}
			return sets[1]
		}
		e := entryOf(imp("a", simclock.Duration(eNom)*sec, 2000*sec, 100*sec, 1900*sec, pick(eHW)))
		n := imp("new", simclock.Duration(nNom)*sec, 2000*sec, 100*sec, 1900*sec, pick(nHW))
		entries := []*alarm.Entry{e}
		aoi := NewAoIAware().Select(entries, n, 0)
		simty := NewSimty().Select(entries, n, 0)
		// AOI only ever refuses joins SIMTY would make, never invents new
		// ones — its batches are a subset.
		return aoi == simty || aoi == -1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
