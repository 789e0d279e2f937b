package alarm

import (
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/hw"
	"repro/internal/simclock"
)

// dupPasses numbers the passes of TestRegisterRejectsDuplicatesAnyCasing,
// so that each registers a name of its own: the registry outlives a
// pass when the tests repeat in one process (go test -count=2).
var dupPasses atomic.Int64

func TestRegisterRejectsDuplicatesAnyCasing(t *testing.T) {
	f := func(PolicyContext) (Policy, error) { return Native{}, nil }
	name := "test-dup-policy-" + strconv.FormatInt(dupPasses.Add(1), 10)
	if err := Register(name, f); err != nil {
		t.Fatalf("first Register: %v", err)
	}
	if err := Register(strings.ToUpper(name), f); err == nil {
		t.Fatal("re-registering under different casing did not fail")
	}
	if err := Register("NATIVE", f); err == nil {
		t.Fatal("shadowing a builtin did not fail")
	}
}

func TestRegisterRejectsEmptyNameAndNilFactory(t *testing.T) {
	if err := Register("", func(PolicyContext) (Policy, error) { return Native{}, nil }); err == nil {
		t.Error("empty name accepted")
	}
	if err := Register("test-nil-factory", nil); err == nil {
		t.Error("nil factory accepted")
	}
}

func TestPolicyByNameCaseInsensitive(t *testing.T) {
	for _, name := range []string{"NATIVE", "native", "Native"} {
		p, err := PolicyByName(name, PolicyContext{})
		if err != nil {
			t.Fatalf("PolicyByName(%q): %v", name, err)
		}
		if p.Name() != "NATIVE" {
			t.Fatalf("PolicyByName(%q).Name() = %q", name, p.Name())
		}
	}
}

func TestPolicyByNameUnknown(t *testing.T) {
	_, err := PolicyByName("NO-SUCH-POLICY", PolicyContext{})
	if err == nil || !strings.Contains(err.Error(), "unknown policy") {
		t.Fatalf("want 'unknown policy' error, got %v", err)
	}
}

// checkedBuilds counts the builds of test-check-policy, which the
// registry takes once per process however often the test runs.
var (
	registerChecked sync.Once
	checkedBuilds   atomic.Int64
)

// TestCheckPolicyBuildsNothing: the validation lookup accepts what
// PolicyByName accepts, in any casing, fails with its error text, and
// never calls a factory.
func TestCheckPolicyBuildsNothing(t *testing.T) {
	registerChecked.Do(func() {
		MustRegister("test-check-policy", func(PolicyContext) (Policy, error) {
			checkedBuilds.Add(1)
			return Native{}, nil
		})
	})
	checkedBuilds.Store(0)
	for _, name := range []string{"TEST-CHECK-POLICY", "test-check-policy", "native"} {
		if err := CheckPolicy(name); err != nil {
			t.Fatalf("CheckPolicy(%q): %v", name, err)
		}
	}
	if n := checkedBuilds.Load(); n != 0 {
		t.Fatalf("CheckPolicy built the policy %d times", n)
	}
	_, want := PolicyByName("NO-SUCH-POLICY", PolicyContext{})
	if err := CheckPolicy("NO-SUCH-POLICY"); err == nil || err.Error() != want.Error() {
		t.Fatalf("CheckPolicy(unknown) = %v, want %v", err, want)
	}
}

func TestPolicyNamesStartWithBuiltins(t *testing.T) {
	names := PolicyNames()
	want := []string{"NATIVE", "NOALIGN", "INTERVAL", "DOZE"}
	if len(names) < len(want) {
		t.Fatalf("PolicyNames() = %v, want at least the builtins %v", names, want)
	}
	for i, w := range want {
		if names[i] != w {
			t.Fatalf("PolicyNames()[%d] = %q, want %q (full list %v)", i, names[i], w, names)
		}
	}
}

// jitterTestAlarm returns an imperceptible repeating alarm: delivered
// before, with a known non-perceptible hardware set.
func jitterTestAlarm(id string) *Alarm {
	return &Alarm{
		ID:         id,
		Kind:       Wakeup,
		Repeat:     Static,
		Nominal:    simclock.Time(60 * simclock.Second),
		Period:     60 * simclock.Second,
		Window:     30 * simclock.Second,
		Grace:      50 * simclock.Second,
		HW:         hw.MakeSet(hw.WiFi),
		HWKnown:    true,
		Deliveries: 1,
	}
}

func TestJitterOffsetsOnlyImperceptibleEntries(t *testing.T) {
	j := Jitter{Inner: Native{}, Phase: 30 * simclock.Second}
	if got := j.Name(); got != "NATIVE-J" {
		t.Errorf("Name() = %q, want NATIVE-J", got)
	}

	imp := newEntry(jitterTestAlarm("a"))
	if imp.Perceptible {
		t.Fatal("test alarm unexpectedly perceptible")
	}
	if got := j.EntryOffset(imp); got != 30*simclock.Second {
		t.Errorf("imperceptible EntryOffset = %v, want 30s", got)
	}

	// An undelivered alarm is deemed perceptible (footnote 5).
	perc := newEntry(&Alarm{ID: "p", Kind: Wakeup, Nominal: simclock.Time(simclock.Second)})
	if !perc.Perceptible {
		t.Fatal("undelivered alarm should be perceptible")
	}
	if got := j.EntryOffset(perc); got != 0 {
		t.Errorf("perceptible EntryOffset = %v, want 0", got)
	}
}

func TestDeliveryTimeAppliesOffset(t *testing.T) {
	e := newEntry(jitterTestAlarm("a"))
	base := e.DeliveryTime()
	if base != e.GraceStart {
		t.Fatalf("unoffset delivery = %v, want grace start %v", base, e.GraceStart)
	}
	e.Offset = 25 * simclock.Second
	if got := e.DeliveryTime(); got != base.Add(25*simclock.Second) {
		t.Fatalf("offset delivery = %v, want %v", got, base.Add(25*simclock.Second))
	}
	// Perceptible entries ignore the offset entirely.
	p := newEntry(&Alarm{ID: "p", Kind: Wakeup, Nominal: simclock.Time(simclock.Second)})
	p.Offset = 25 * simclock.Second
	if got := p.DeliveryTime(); got != p.WinStart {
		t.Fatalf("perceptible offset delivery = %v, want window start %v", got, p.WinStart)
	}
}

func TestQueueInsertAppliesOffsetterPhase(t *testing.T) {
	var q Queue
	j := Jitter{Inner: Native{}, Phase: 20 * simclock.Second}

	e := q.Insert(jitterTestAlarm("a"), j, 0)
	if e.Offset != 20*simclock.Second {
		t.Fatalf("new entry Offset = %v, want 20s", e.Offset)
	}
	want := e.GraceStart.Add(20 * simclock.Second)
	if got := e.DeliveryTime(); got != want {
		t.Fatalf("delivery = %v, want %v", got, want)
	}

	// Joining an existing entry re-applies the offset after membership
	// changes.
	b := jitterTestAlarm("b")
	e2 := q.Insert(b, j, 0)
	if e2 != e {
		t.Fatalf("alarm b did not join a's entry")
	}
	if e.Offset != 20*simclock.Second {
		t.Fatalf("joined entry Offset = %v, want 20s", e.Offset)
	}
}
