package anomaly

import (
	"strings"
	"testing"

	"repro/internal/alarm"
	"repro/internal/hw"
	"repro/internal/simclock"
	"repro/internal/trace"
)

const sec = simclock.Second

func on(at simclock.Duration, c hw.Component) trace.Event {
	return trace.Event{At: simclock.Time(at), Kind: trace.EventComponentOn, Component: c}
}

func off(at simclock.Duration, c hw.Component) trace.Event {
	return trace.Event{At: simclock.Time(at), Kind: trace.EventComponentOff, Component: c}
}

func delivery(at simclock.Duration, app string, set hw.Set) trace.Event {
	return trace.Event{At: simclock.Time(at), Kind: trace.EventDelivery,
		Delivery: &alarm.Record{App: app, HW: set, Delivered: simclock.Time(at)}}
}

func TestCleanTraceNoFindings(t *testing.T) {
	events := []trace.Event{
		on(10*sec, hw.WiFi),
		delivery(10*sec, "Line", hw.MakeSet(hw.WiFi)),
		off(13*sec, hw.WiFi),
		on(100*sec, hw.WPS),
		off(104*sec, hw.WPS),
	}
	if got := Analyze(events, simclock.Time(200*sec)); len(got) != 0 {
		t.Fatalf("clean trace produced findings: %v", got)
	}
}

func TestHeldTooLong(t *testing.T) {
	events := []trace.Event{
		on(10*sec, hw.WiFi),
		delivery(10*sec, "BuggyApp", hw.MakeSet(hw.WiFi)),
		off(200*sec, hw.WiFi), // 190 s > 60 s default threshold
	}
	got := Analyze(events, simclock.Time(300*sec))
	if len(got) != 1 {
		t.Fatalf("findings = %v", got)
	}
	f := got[0]
	if f.Kind != HeldTooLong || f.Component != hw.WiFi || f.Held != 190*sec {
		t.Fatalf("finding = %+v", f)
	}
	if len(f.Suspects) != 1 || f.Suspects[0] != "BuggyApp" {
		t.Fatalf("suspects = %v", f.Suspects)
	}
	if !strings.Contains(f.String(), "held-too-long") || !strings.Contains(f.String(), "BuggyApp") {
		t.Fatalf("String = %q", f.String())
	}
}

func TestNeverReleased(t *testing.T) {
	events := []trace.Event{
		on(50*sec, hw.WPS),
		delivery(50*sec, "Tracker", hw.MakeSet(hw.WPS)),
	}
	got := Analyze(events, simclock.Time(500*sec))
	if len(got) != 1 || got[0].Kind != NeverReleased {
		t.Fatalf("findings = %v", got)
	}
	if got[0].Until != simclock.Time(500*sec) || got[0].Held != 450*sec {
		t.Fatalf("finding = %+v", got[0])
	}
}

func TestSuspectsDedupedMostRecentFirst(t *testing.T) {
	events := []trace.Event{
		on(0, hw.WiFi),
		delivery(1*sec, "A", hw.MakeSet(hw.WiFi)),
		delivery(2*sec, "B", hw.MakeSet(hw.WiFi)),
		delivery(3*sec, "A", hw.MakeSet(hw.WiFi)),
		off(200*sec, hw.WiFi),
	}
	got := Analyze(events, simclock.Time(300*sec))
	if len(got) != 1 {
		t.Fatalf("findings = %v", got)
	}
	s := got[0].Suspects
	if len(s) != 2 || s[0] != "A" || s[1] != "B" {
		t.Fatalf("suspects = %v, want most recent first, deduped", s)
	}
}

func TestFindingsSortedBySeverity(t *testing.T) {
	events := []trace.Event{
		on(0, hw.WiFi), off(100*sec, hw.WiFi), // 100 s
		on(0, hw.WPS), off(300*sec, hw.WPS), // 300 s
	}
	got := Analyze(events, simclock.Time(400*sec))
	if len(got) != 2 || got[0].Component != hw.WPS || got[1].Component != hw.WiFi {
		t.Fatalf("ordering = %v", got)
	}
}

func TestDeliveryOutsideStretchNotSuspected(t *testing.T) {
	events := []trace.Event{
		delivery(1*sec, "Early", hw.MakeSet(hw.WiFi)), // before the stretch
		on(10*sec, hw.WiFi),
		off(200*sec, hw.WiFi),
	}
	got := Analyze(events, simclock.Time(300*sec))
	if len(got) != 1 || len(got[0].Suspects) != 0 {
		t.Fatalf("findings = %v", got)
	}
}

func TestKindStrings(t *testing.T) {
	if HeldTooLong.String() != "held-too-long" || NeverReleased.String() != "never-released" {
		t.Fatal("kind strings wrong")
	}
	if !strings.Contains(Kind(7).String(), "7") {
		t.Fatal("unknown kind string")
	}
}

func taskStart(at simclock.Duration, tag string, set hw.Set) trace.Event {
	return trace.Event{At: simclock.Time(at), Kind: trace.EventTaskStart, Tag: tag, Set: set}
}

func taskEnd(at simclock.Duration, tag string, set hw.Set) trace.Event {
	return trace.Event{At: simclock.Time(at), Kind: trace.EventTaskEnd, Tag: tag, Set: set}
}

func TestTaggedTaskAttribution(t *testing.T) {
	wifi := hw.MakeSet(hw.WiFi)
	events := []trace.Event{
		on(0, hw.WiFi),
		taskStart(0, "leaky", wifi),
		delivery(0, "leaky", wifi),
		taskStart(5*sec, "healthy", wifi),
		delivery(5*sec, "healthy", wifi),
		taskEnd(7*sec, "healthy", wifi),
		// leaky never ends; component never off.
	}
	got := Analyze(events, simclock.Time(600*sec))
	if len(got) != 1 {
		t.Fatalf("findings = %v", got)
	}
	s := got[0].Suspects
	if len(s) == 0 || s[0] != "leaky" {
		t.Fatalf("suspects = %v, want leaky first (open task)", s)
	}
	// healthy still appears, but only via the delivery fallback.
	found := false
	for _, x := range s {
		if x == "healthy" {
			found = true
		}
	}
	if !found {
		t.Fatalf("suspects = %v, want healthy in fallback", s)
	}
}

func TestTaskEndMatchesNewestInstance(t *testing.T) {
	wifi := hw.MakeSet(hw.WiFi)
	// Two overlapping instances of the same tag; one ends. One remains
	// open and keeps the tag a primary suspect.
	events := []trace.Event{
		on(0, hw.WiFi),
		taskStart(0, "app", wifi),
		taskStart(1*sec, "app", wifi),
		taskEnd(2*sec, "app", wifi),
	}
	got := Analyze(events, simclock.Time(600*sec))
	if len(got) != 1 {
		t.Fatalf("findings = %v", got)
	}
	if len(got[0].Suspects) != 1 || got[0].Suspects[0] != "app" {
		t.Fatalf("suspects = %v", got[0].Suspects)
	}
}

func TestUntaggedTasksIgnoredAsPrimary(t *testing.T) {
	wifi := hw.MakeSet(hw.WiFi)
	events := []trace.Event{
		on(0, hw.WiFi),
		taskStart(0, "", wifi), // untagged (plain RunTask)
		delivery(1*sec, "SomeApp", wifi),
	}
	got := Analyze(events, simclock.Time(600*sec))
	if len(got) != 1 {
		t.Fatalf("findings = %v", got)
	}
	if len(got[0].Suspects) != 1 || got[0].Suspects[0] != "SomeApp" {
		t.Fatalf("suspects = %v, want delivery fallback only", got[0].Suspects)
	}
}
