package core

import (
	"testing"
	"testing/quick"

	"repro/internal/alarm"
	"repro/internal/hw"
	"repro/internal/simclock"
)

const sec = simclock.Second

func TestHardwareSimilarityLevels(t *testing.T) {
	wifi := hw.MakeSet(hw.WiFi)
	wifiWPS := hw.MakeSet(hw.WiFi, hw.WPS)
	wps := hw.MakeSet(hw.WPS)
	spk := hw.MakeSet(hw.Speaker)
	cases := []struct {
		a, b hw.Set
		want Level
	}{
		{wifi, wifi, High},       // identical non-empty
		{wifiWPS, wifiWPS, High}, // identical multi-component
		{wifi, wifiWPS, Medium},  // partial overlap
		{wifiWPS, wps, Medium},   // partial overlap
		{wifi, spk, Low},         // disjoint
		{0, 0, Low},              // both empty: identical but empty ⇒ low
		{0, wifi, Low},           // one empty
		{wifi, 0, Low},           // one empty (symmetric)
	}
	for _, tc := range cases {
		if got := HardwareSimilarity(tc.a, tc.b); got != tc.want {
			t.Errorf("HardwareSimilarity(%v,%v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
		if got := HardwareSimilarity(tc.b, tc.a); got != tc.want {
			t.Errorf("HardwareSimilarity not symmetric for (%v,%v)", tc.a, tc.b)
		}
	}
}

func imp(id string, nominal, period, window, grace simclock.Duration, set hw.Set) *alarm.Alarm {
	return &alarm.Alarm{ID: id, Repeat: alarm.Static, Nominal: simclock.Time(nominal),
		Period: period, Window: window, Grace: grace, HW: set, HWKnown: true}
}

func entryOf(as ...*alarm.Alarm) *alarm.Entry {
	var q alarm.Queue
	for _, a := range as {
		q.Insert(a, alarm.NoAlign{}, 0)
	}
	// Merge into one entry by hand: use a queue with a policy that always
	// joins entry 0.
	var q2 alarm.Queue
	for i, a := range as {
		if i == 0 {
			q2.Insert(a, alarm.NoAlign{}, 0)
		} else {
			q2.Insert(a, joinFirst{}, 0)
		}
	}
	return q2.Entries()[0]
}

type joinFirst struct{}

func (joinFirst) Name() string                                           { return "joinFirst" }
func (joinFirst) Select([]*alarm.Entry, *alarm.Alarm, simclock.Time) int { return 0 }

func TestTimeSimilarityLevels(t *testing.T) {
	wifi := hw.MakeSet(hw.WiFi)
	e := entryOf(imp("a", 100*sec, 1000*sec, 50*sec, 400*sec, wifi)) // win [100,150] grace [100,500]
	cases := []struct {
		name string
		b    *alarm.Alarm
		want Level
	}{
		{"window overlap", imp("b", 120*sec, 1000*sec, 50*sec, 400*sec, wifi), High},
		{"point window overlap", imp("b", 150*sec, 1000*sec, 0, 0, wifi), High},
		{"grace only", imp("b", 200*sec, 1000*sec, 50*sec, 400*sec, wifi), Medium},
		{"alarm grace reaches back", imp("b", 160*sec, 1000*sec, 10*sec, 400*sec, wifi), Medium},
		{"no overlap", imp("b", 600*sec, 1000*sec, 50*sec, 100*sec, wifi), Low},
		{"before entry", imp("b", 0, 1000*sec, 20*sec, 50*sec, wifi), Medium}, // grace [0,50]? no...
	}
	for _, tc := range cases[:5] {
		if got := TimeSimilarity(tc.b, e); got != tc.want {
			t.Errorf("%s: TimeSimilarity = %v, want %v", tc.name, got, tc.want)
		}
	}
	// An alarm entirely before the entry's intervals is low.
	before := imp("b", 0, 1000*sec, 20*sec, 50*sec, wifi)
	if got := TimeSimilarity(before, e); got != Low {
		t.Errorf("before: TimeSimilarity = %v, want low", got)
	}
}

func TestRankTable1(t *testing.T) {
	// The exact Table 1 matrix.
	want := map[[2]Level]int{
		{High, High}:     1,
		{High, Medium}:   2,
		{Medium, High}:   3,
		{Medium, Medium}: 4,
		{Low, High}:      5,
		{Low, Medium}:    6,
	}
	for k, v := range want {
		if got := Rank(k[0], k[1]); got != v {
			t.Errorf("Rank(hw=%v,time=%v) = %d, want %d", k[0], k[1], got, v)
		}
	}
	for _, h := range []Level{High, Medium, Low} {
		if got := Rank(h, Low); got != Inapplicable {
			t.Errorf("Rank(hw=%v,time=low) = %d, want Inapplicable", h, got)
		}
	}
}

func TestApplicability(t *testing.T) {
	wifi := hw.MakeSet(hw.WiFi)
	spk := hw.MakeSet(hw.Speaker)
	// Imperceptible entry, windows [100,150], graces [100,500].
	ie := entryOf(imp("e", 100*sec, 1000*sec, 50*sec, 400*sec, wifi))
	// Perceptible entry, same intervals.
	pe := entryOf(imp("p", 100*sec, 1000*sec, 50*sec, 400*sec, spk))

	impHigh := imp("x", 120*sec, 1000*sec, 50*sec, 400*sec, wifi)
	impMed := imp("x", 200*sec, 1000*sec, 50*sec, 400*sec, wifi)
	impLow := imp("x", 600*sec, 1000*sec, 50*sec, 100*sec, wifi)
	percHigh := imp("x", 120*sec, 1000*sec, 50*sec, 400*sec, spk)
	percMed := imp("x", 200*sec, 1000*sec, 50*sec, 400*sec, spk)
	unknown := &alarm.Alarm{ID: "u", Repeat: alarm.Static, Nominal: simclock.Time(200 * sec),
		Period: 1000 * sec, Window: 50 * sec, Grace: 400 * sec} // HW unknown ⇒ perceptible

	cases := []struct {
		name string
		a    *alarm.Alarm
		e    *alarm.Entry
		want bool
	}{
		{"imp/imp high", impHigh, ie, true},
		{"imp/imp medium", impMed, ie, true},
		{"imp/imp low", impLow, ie, false},
		{"perc alarm high", percHigh, ie, true},
		{"perc alarm medium", percMed, ie, false},
		{"imp alarm, perc entry, high", impHigh, pe, true},
		{"imp alarm, perc entry, medium", impMed, pe, false},
		{"unknown-HW alarm medium", unknown, ie, false},
	}
	for _, tc := range cases {
		if got := Applicable(tc.a, tc.e); got != tc.want {
			t.Errorf("%s: Applicable = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestSimtyMotivatingExample reproduces Figure 2 at the policy level: a
// queue holding a calendar alarm (speaker & vibrator) and a WPS alarm;
// the newly inserted WPS alarm window-overlaps the calendar entry but
// only grace-overlaps the WPS entry. NATIVE joins the calendar entry;
// SIMTY prefers the hardware-identical WPS entry.
func TestSimtyMotivatingExample(t *testing.T) {
	spkvib := hw.MakeSet(hw.Speaker, hw.Vibrator)
	wps := hw.MakeSet(hw.WPS)

	build := func() ([]*alarm.Entry, *alarm.Alarm) {
		var q alarm.Queue
		cal := imp("calendar", 60*sec, 1800*sec, 40*sec, 40*sec, spkvib) // win [60,100]
		l1 := imp("loc1", 300*sec, 600*sec, 30*sec, 500*sec, wps)        // win [300,330] grace [300,800]
		q.Insert(cal, alarm.NoAlign{}, 0)
		q.Insert(l1, alarm.NoAlign{}, 0)
		l2 := imp("loc2", 50*sec, 600*sec, 40*sec, 500*sec, wps) // win [50,90] grace [50,550]
		return q.Entries(), l2
	}

	entries, l2 := build()
	if got := (alarm.Native{}).Select(entries, l2, 0); got != 0 {
		t.Fatalf("NATIVE chose entry %d, want 0 (calendar, window overlap)", got)
	}
	if got := NewSimty().Select(entries, l2, 0); got != 1 {
		t.Fatalf("SIMTY chose entry %d, want 1 (WPS, hardware similarity)", got)
	}
}

func TestSimtyPrefersHardwareOverTime(t *testing.T) {
	wifi := hw.MakeSet(hw.WiFi)
	wps := hw.MakeSet(hw.WPS)
	// Entry 0: window-overlapping but disjoint hardware (rank 5).
	// Entry 1: grace-overlapping with identical hardware (rank 2).
	e0 := entryOf(imp("a", 100*sec, 1000*sec, 100*sec, 800*sec, wps))
	e1 := entryOf(imp("b", 400*sec, 1000*sec, 100*sec, 800*sec, wifi))
	n := imp("new", 150*sec, 1000*sec, 100*sec, 800*sec, wifi)
	if got := NewSimty().Select([]*alarm.Entry{e0, e1}, n, 0); got != 1 {
		t.Fatalf("SIMTY chose %d, want 1 (hardware dominates)", got)
	}
}

func TestSimtyTimeBreaksHardwareTies(t *testing.T) {
	wifi := hw.MakeSet(hw.WiFi)
	// Both entries have identical hardware; entry 1 window-overlaps
	// (rank 1), entry 0 only grace-overlaps (rank 2).
	e0 := entryOf(imp("a", 400*sec, 1000*sec, 50*sec, 800*sec, wifi))
	e1 := entryOf(imp("b", 120*sec, 1000*sec, 100*sec, 800*sec, wifi))
	n := imp("new", 150*sec, 1000*sec, 100*sec, 800*sec, wifi)
	if got := NewSimty().Select([]*alarm.Entry{e0, e1}, n, 0); got != 1 {
		t.Fatalf("SIMTY chose %d, want 1 (time similarity tie-break)", got)
	}
}

func TestSimtyFirstFoundOnExactTie(t *testing.T) {
	wifi := hw.MakeSet(hw.WiFi)
	e0 := entryOf(imp("a", 120*sec, 1000*sec, 100*sec, 800*sec, wifi))
	e1 := entryOf(imp("b", 130*sec, 1000*sec, 100*sec, 800*sec, wifi))
	n := imp("new", 150*sec, 1000*sec, 100*sec, 800*sec, wifi)
	if got := NewSimty().Select([]*alarm.Entry{e0, e1}, n, 0); got != 0 {
		t.Fatalf("SIMTY chose %d, want 0 (first found)", got)
	}
}

func TestSimtyNoApplicableEntry(t *testing.T) {
	wifi := hw.MakeSet(hw.WiFi)
	e0 := entryOf(imp("a", 5000*sec, 10000*sec, 50*sec, 100*sec, wifi))
	n := imp("new", 150*sec, 1000*sec, 100*sec, 800*sec, wifi)
	if got := NewSimty().Select([]*alarm.Entry{e0}, n, 0); got != -1 {
		t.Fatalf("SIMTY chose %d, want -1 (new entry)", got)
	}
	if got := NewSimty().Select(nil, n, 0); got != -1 {
		t.Fatalf("SIMTY on empty queue = %d, want -1", got)
	}
}

func TestSimtyPerceptibleStaysInWindow(t *testing.T) {
	spk := hw.MakeSet(hw.Speaker)
	wifi := hw.MakeSet(hw.WiFi)
	// Only a grace-overlapping entry exists; a perceptible alarm must
	// not join it even with identical hardware.
	e0 := entryOf(imp("a", 400*sec, 1800*sec, 50*sec, 1000*sec, spk))
	n := imp("new", 100*sec, 1800*sec, 50*sec, 1000*sec, spk)
	if got := NewSimty().Select([]*alarm.Entry{e0}, n, 0); got != -1 {
		t.Fatalf("perceptible alarm joined grace-only entry (%d)", got)
	}
	// And an imperceptible alarm must not drag a perceptible entry
	// beyond its window either.
	e1 := entryOf(imp("p", 400*sec, 1800*sec, 50*sec, 1000*sec, spk))
	m := imp("imp", 100*sec, 1800*sec, 50*sec, 1000*sec, wifi)
	if got := NewSimty().Select([]*alarm.Entry{e1}, m, 0); got != -1 {
		t.Fatalf("imperceptible alarm grace-joined perceptible entry (%d)", got)
	}
}

func TestVariantClassifiers(t *testing.T) {
	wifi := hw.MakeSet(hw.WiFi)
	wifiAcc := hw.MakeSet(hw.WiFi, hw.Accelerometer)
	accSpk := hw.MakeSet(hw.Accelerometer, hw.Speaker)
	acc := hw.MakeSet(hw.Accelerometer)

	if (TwoLevel{}).Columns() != 2 || (ThreeLevel{}).Columns() != 3 || (FourLevel{}).Columns() != 4 {
		t.Fatal("Columns wrong")
	}
	// TwoLevel: any shared component is column 0.
	if (TwoLevel{}).Column(wifi, wifiAcc) != 0 || (TwoLevel{}).Column(wifi, acc) != 1 {
		t.Fatal("TwoLevel classification wrong")
	}
	// FourLevel: sharing an energy-hungry component outranks sharing a
	// cold one.
	if (FourLevel{}).Column(wifi, wifi) != 0 {
		t.Fatal("FourLevel identical wrong")
	}
	if (FourLevel{}).Column(wifi, wifiAcc) != 1 { // shares Wi-Fi (hungry)
		t.Fatal("FourLevel hungry-medium wrong")
	}
	if (FourLevel{}).Column(wifiAcc, accSpk) != 2 { // shares accelerometer only
		t.Fatal("FourLevel cold-medium wrong")
	}
	if (FourLevel{}).Column(wifi, acc) != 3 {
		t.Fatal("FourLevel disjoint wrong")
	}
}

func TestSimtyNames(t *testing.T) {
	if NewSimty().Name() != "SIMTY" {
		t.Fatalf("Name = %q", NewSimty().Name())
	}
	if (&Simty{HW: TwoLevel{}}).Name() != "SIMTY-hw2" {
		t.Fatalf("variant name = %q", (&Simty{HW: TwoLevel{}}).Name())
	}
	if (&Simty{}).Name() != "SIMTY" { // nil classifier defaults to hw3
		t.Fatal("nil classifier name wrong")
	}
	if NewDurationSimty().Name() != "SIMTY-DUR" {
		t.Fatal("duration name wrong")
	}
	if Low.String() != "low" || Medium.String() != "medium" || High.String() != "high" {
		t.Fatal("Level strings wrong")
	}
}

func TestDurationDissimilarity(t *testing.T) {
	wifi := hw.MakeSet(hw.WiFi)
	a2 := imp("a", 100*sec, 1000*sec, 100*sec, 800*sec, wifi)
	a2.DeclaredDur = 2 * sec
	e := entryOf(a2)
	n := imp("n", 120*sec, 1000*sec, 100*sec, 800*sec, wifi)
	n.DeclaredDur = 2 * sec
	if got := DurationDissimilarity(n, e); got != 0 {
		t.Fatalf("identical durations dissimilarity = %v", got)
	}
	n.DeclaredDur = 1 * sec
	if got := DurationDissimilarity(n, e); got != 0.5 {
		t.Fatalf("half duration dissimilarity = %v, want 0.5", got)
	}
	n.DeclaredDur = 0
	if got := DurationDissimilarity(n, e); got != 1 {
		t.Fatalf("undeclared dissimilarity = %v, want 1", got)
	}
}

func TestDurationSimtyPrefersSimilarDuration(t *testing.T) {
	wifi := hw.MakeSet(hw.WiFi)
	long := imp("long", 100*sec, 1000*sec, 100*sec, 800*sec, wifi)
	long.DeclaredDur = 10 * sec
	short := imp("short", 110*sec, 1000*sec, 100*sec, 800*sec, wifi)
	short.DeclaredDur = 2 * sec
	e0, e1 := entryOf(long), entryOf(short)
	n := imp("n", 150*sec, 1000*sec, 100*sec, 800*sec, wifi)
	n.DeclaredDur = 2 * sec
	// Both entries rank 1 (identical HW, window overlap). Plain SIMTY
	// takes the first; the duration extension takes the similar one.
	if got := NewSimty().Select([]*alarm.Entry{e0, e1}, n, 0); got != 0 {
		t.Fatalf("plain SIMTY chose %d, want 0", got)
	}
	if got := NewDurationSimty().Select([]*alarm.Entry{e0, e1}, n, 0); got != 1 {
		t.Fatalf("SIMTY-DUR chose %d, want 1 (similar duration)", got)
	}
}

// Property: SIMTY never selects an entry that would violate the search
// phase rule, and always selects the minimum-rank applicable entry.
func TestPropertySimtySelectsBestApplicable(t *testing.T) {
	wifiSets := []hw.Set{0, hw.MakeSet(hw.WiFi), hw.MakeSet(hw.WPS),
		hw.MakeSet(hw.WiFi, hw.WPS), hw.MakeSet(hw.Speaker), hw.MakeSet(hw.Accelerometer)}
	s := NewSimty()
	prop := func(nominals []uint8, hwIdx []uint8, newNom, newHW uint8) bool {
		var entries []*alarm.Entry
		for i, nm := range nominals {
			var set hw.Set
			if len(hwIdx) > 0 {
				set = wifiSets[int(hwIdx[i%len(hwIdx)])%len(wifiSets)]
			}
			a := imp("e"+string(rune('0'+i%10))+string(rune('a'+i/10%26)),
				simclock.Duration(nm)*10*sec, 4000*sec, 200*sec, 2000*sec, set)
			if set == 0 {
				a.HWKnown = true // CPU-only, imperceptible
			}
			entries = append(entries, entryOf(a))
		}
		n := imp("new", simclock.Duration(newNom)*10*sec, 4000*sec, 200*sec, 2000*sec,
			wifiSets[int(newHW)%len(wifiSets)])
		got := s.Select(entries, n, 0)
		// Compute the expected answer by brute force.
		want, wantRank := -1, Inapplicable
		for i, e := range entries {
			if !Applicable(n, e) {
				continue
			}
			r := Rank(HardwareSimilarity(n.HW, e.HW), TimeSimilarity(n, e))
			if r < wantRank {
				want, wantRank = i, r
			}
		}
		return got == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
