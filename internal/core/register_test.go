package core

import (
	"reflect"
	"testing"

	"repro/internal/alarm"
	"repro/internal/apps"
	"repro/internal/simclock"
)

func TestJitterPhase(t *testing.T) {
	spread := DefaultJitterSpread
	a := JitterPhase(42, spread)
	if b := JitterPhase(42, spread); b != a {
		t.Fatalf("JitterPhase not deterministic: %v vs %v", a, b)
	}
	if a < 0 || a >= spread {
		t.Fatalf("JitterPhase(42) = %v outside [0, %v)", a, spread)
	}
	if JitterPhase(42, 0) != 0 || JitterPhase(42, -simclock.Second) != 0 {
		t.Fatal("non-positive spread should pin the phase to 0")
	}
	// Distinct seeds decorrelate: across a small seed range at least one
	// other phase differs from seed 42's.
	same := true
	for seed := int64(0); seed < 8; seed++ {
		if JitterPhase(seed, spread) != a {
			same = false
		}
	}
	if same {
		t.Fatal("JitterPhase constant across seeds")
	}
}

func TestSimtyJRegistration(t *testing.T) {
	p, err := alarm.PolicyByName("SIMTY-J", alarm.PolicyContext{Seed: 42})
	if err != nil {
		t.Fatalf("PolicyByName(SIMTY-J): %v", err)
	}
	if p.Name() != "SIMTY-J" {
		t.Fatalf("Name() = %q, want SIMTY-J", p.Name())
	}
	j, ok := p.(alarm.Jitter)
	if !ok {
		t.Fatalf("SIMTY-J resolved to %T, want alarm.Jitter", p)
	}
	if want := JitterPhase(42, DefaultJitterSpread); j.Phase != want {
		t.Fatalf("Phase = %v, want seeded draw %v", j.Phase, want)
	}
	if _, ok := j.Inner.(*Simty); !ok {
		t.Fatalf("Inner = %T, want *Simty", j.Inner)
	}
}

func TestRegisteredPolicyNamesIncludeSimtyFamily(t *testing.T) {
	got := map[string]bool{}
	for _, n := range alarm.PolicyNames() {
		got[n] = true
	}
	for _, want := range []string{"SIMTY", "SIMTY-hw2", "SIMTY-hw4", "SIMTY-DUR", "SIMTY-J"} {
		if !got[want] {
			t.Errorf("PolicyNames missing %q (got %v)", want, alarm.PolicyNames())
		}
	}
}

// TestPolicyByNameBuildsFreshInstances: every lookup builds its own
// policy, so a caller may write into the one it gets, as wakebench's
// traced run does to the SIMTY inside it, without reaching any other
// run's policy.
func TestPolicyByNameBuildsFreshInstances(t *testing.T) {
	checked := 0
	for _, name := range alarm.PolicyNames() {
		ctx := alarm.PolicyContext{Seed: 1}
		a, errA := alarm.PolicyByName(name, ctx)
		b, errB := alarm.PolicyByName(name, ctx)
		if errA != nil || errB != nil {
			t.Fatalf("%s: %v, %v", name, errA, errB)
		}
		if j, ok := a.(alarm.Jitter); ok {
			a, b = j.Inner, b.(alarm.Jitter).Inner
		}
		if reflect.ValueOf(a).Kind() != reflect.Pointer {
			continue
		}
		checked++
		if a == b {
			t.Errorf("%s: two lookups returned one instance", name)
		}
	}
	if checked < 7 {
		t.Fatalf("%d pointer policies checked, want the SIMTY family and AOI", checked)
	}
}

// TestResetMatchesFactory: a registry policy that an environment may
// keep is named for its registration, and reset for a context it is the
// policy its factory builds for that context.
func TestResetMatchesFactory(t *testing.T) {
	h := simclock.Hour
	day := &apps.DayProfile{Phases: []apps.Phase{
		{Name: "up", Start: 0, End: 12 * h, PushScale: 1, ScreenScale: 1, Active: true},
		{Name: "down", Start: 12 * h, End: 24 * h, PushScale: 0.5, ScreenScale: 0.5},
	}}
	ctxs := []alarm.PolicyContext{{Seed: 1}, {Seed: 2, Activity: day}}
	resetters := 0
	for _, name := range alarm.PolicyNames() {
		for i, from := range ctxs {
			to := ctxs[1-i]
			p, err := alarm.PolicyByName(name, from)
			if err != nil {
				t.Fatal(err)
			}
			r, ok := p.(interface{ Reset(alarm.PolicyContext) })
			if !ok {
				continue
			}
			resetters++
			if p.Name() != name {
				t.Errorf("%s builds a policy named %q", name, p.Name())
			}
			r.Reset(to)
			if want, _ := alarm.PolicyByName(name, to); !reflect.DeepEqual(p, want) {
				t.Errorf("%s reset for context %d is not the policy its factory builds for it", name, 1-i)
			}
		}
	}
	if resetters < 2*6 {
		t.Fatalf("%d resets checked, want two for each of the SIMTY family but SIMTY-J, and AOI", resetters)
	}
}
