package apps

import (
	"testing"

	"repro/internal/simclock"
)

func TestDefaultDayValidates(t *testing.T) {
	if err := DefaultDay().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDayProfileAtWrapsAndCovers(t *testing.T) {
	p := DefaultDay()
	h := simclock.Hour
	cases := []struct {
		at   simclock.Time
		want string
	}{
		{simclock.Time(0), "night"},
		{simclock.Time(0).Add(7*h - 1), "night"},
		{simclock.Time(0).Add(7 * h), "morning"},
		{simclock.Time(0).Add(12 * h), "day"},
		{simclock.Time(0).Add(20 * h), "evening"},
		{simclock.Time(0).Add(23*h + 30*simclock.Minute), "winddown"},
		{simclock.Time(0).Add(Day + 3*h), "night"},      // wraps to day 2
		{simclock.Time(0).Add(5*Day + 19*h), "evening"}, // day 6
	}
	for _, c := range cases {
		if got := p.At(c.at).Name; got != c.want {
			t.Errorf("At(%v) = %s, want %s", c.at, got, c.want)
		}
	}
}

func TestDayProfileActiveAt(t *testing.T) {
	p := DefaultDay()
	h := simclock.Hour
	if p.ActiveAt(simclock.Time(0).Add(3 * h)) {
		t.Error("3am should be inactive")
	}
	if !p.ActiveAt(simclock.Time(0).Add(12 * h)) {
		t.Error("noon should be active")
	}
}

func TestNextActiveStart(t *testing.T) {
	p := DefaultDay()
	h := simclock.Hour
	// 3am → morning at 7am the same day.
	at, ok := p.NextActiveStart(simclock.Time(0).Add(3 * h))
	if !ok || at != simclock.Time(0).Add(7*h) {
		t.Fatalf("NextActiveStart(3h) = %v, %v; want 7h, true", at, ok)
	}
	// Noon is already active.
	at, ok = p.NextActiveStart(simclock.Time(0).Add(12 * h))
	if !ok || at != simclock.Time(0).Add(12*h) {
		t.Fatalf("NextActiveStart(12h) = %v, %v; want 12h, true", at, ok)
	}
	// 23:30 → morning of the next day.
	at, ok = p.NextActiveStart(simclock.Time(0).Add(23*h + 30*simclock.Minute))
	if !ok || at != simclock.Time(0).Add(Day+7*h) {
		t.Fatalf("NextActiveStart(23.5h) = %v, %v; want day+7h, true", at, ok)
	}
	// A profile with no active phase reports false.
	flat := &DayProfile{Phases: []Phase{{Name: "flat", Start: 0, End: Day, PushScale: 1, ScreenScale: 1}}}
	if err := flat.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, ok := flat.NextActiveStart(simclock.Time(0)); ok {
		t.Fatal("flat profile should have no active start")
	}
}

func TestDayProfileValidateRejects(t *testing.T) {
	h := simclock.Hour
	bad := []*DayProfile{
		nil,
		{},
		{Phases: []Phase{{Start: h, End: Day}}}, // gap at midnight
		{Phases: []Phase{{Start: 0, End: 12 * h}}},                                // short of 24h
		{Phases: []Phase{{Start: 0, End: 0}}},                                     // empty phase
		{Phases: []Phase{{Start: 0, End: Day, PushScale: -1}}},                    // negative scale
		{Phases: []Phase{{Start: 0, End: 12 * h}, {Start: 13 * h, End: Day}}},     // interior gap
		{Phases: []Phase{{Start: 0, End: Day, PushScale: nan(), ScreenScale: 1}}}, // NaN scale
		{Phases: []Phase{{Start: 0, End: 12 * h}, {Start: 12 * h, End: Day + simclock.Hour}}} /* overrun */}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted invalid profile", i)
		}
	}
}

func nan() float64 {
	z := 0.0
	return z / z
}

func TestMaxScales(t *testing.T) {
	p := DefaultDay()
	if got := p.MaxPushScale(); got != 1.4 {
		t.Errorf("MaxPushScale = %v, want 1.4", got)
	}
	if got := p.MaxScreenScale(); got != 1.6 {
		t.Errorf("MaxScreenScale = %v, want 1.6", got)
	}
}

func TestDiffSyncPayloadExtendsTaskDur(t *testing.T) {
	for _, s := range DiffSyncWorkload() {
		if s.PayloadKB <= 0 {
			t.Errorf("%s: diff-sync app without payload", s.Name)
		}
		if s.Period <= 0 || s.HW != wifi {
			t.Errorf("%s: malformed diff-sync spec", s.Name)
		}
	}
	if len(MixedWorkload()) != len(LightWorkload())+len(DiffSyncWorkload()) {
		t.Fatal("MixedWorkload should concatenate light + diff-sync")
	}
}

func TestBuildPayloadScalesTaskDur(t *testing.T) {
	_, r, _ := newRuntime(t, 0.96)
	s := Spec{Name: "ds.t", Period: 300 * sec, TaskDur: 500 * simclock.Millisecond, PayloadKB: 100}
	a := r.Build(s, simclock.Time(300*sec))
	want := 500*simclock.Millisecond + simclock.Duration(100*float64(PayloadKBDur))
	if a.DeclaredDur != want {
		t.Fatalf("DeclaredDur = %v, want %v", a.DeclaredDur, want)
	}
	// Zero payload leaves the task untouched.
	s.PayloadKB = 0
	if got := r.Build(s, simclock.Time(300*sec)).DeclaredDur; got != 500*simclock.Millisecond {
		t.Fatalf("zero-payload DeclaredDur = %v", got)
	}
}
