package hw

import (
	"encoding/json"
	"testing"
	"testing/quick"
)

func TestMakeSetAndContains(t *testing.T) {
	s := MakeSet(WiFi, WPS)
	if !s.Contains(WiFi) || !s.Contains(WPS) {
		t.Fatal("set missing members")
	}
	if s.Contains(Speaker) {
		t.Fatal("set contains non-member")
	}
	if s.Count() != 2 {
		t.Fatalf("Count = %d, want 2", s.Count())
	}
}

func TestEmptySet(t *testing.T) {
	var s Set
	if !s.Empty() || s.Count() != 0 {
		t.Fatal("zero Set is not empty")
	}
	if s.String() != "{}" {
		t.Fatalf("empty set String = %q", s.String())
	}
	if s.Perceptible() {
		t.Fatal("empty set reports perceptible")
	}
	if len(s.Components()) != 0 {
		t.Fatal("empty set has components")
	}
}

func TestUnionIntersect(t *testing.T) {
	a := MakeSet(WiFi, WPS)
	b := MakeSet(WPS, Accelerometer)
	if got := a.Union(b); got != MakeSet(WiFi, WPS, Accelerometer) {
		t.Fatalf("Union = %v", got)
	}
	if got := a.Intersect(b); got != MakeSet(WPS) {
		t.Fatalf("Intersect = %v", got)
	}
	if !a.Intersects(b) {
		t.Fatal("Intersects = false for overlapping sets")
	}
	if a.Intersects(MakeSet(Speaker)) {
		t.Fatal("Intersects = true for disjoint sets")
	}
}

func TestComponentsOrdered(t *testing.T) {
	s := MakeSet(Vibrator, WiFi, Accelerometer)
	cs := s.Components()
	want := []Component{WiFi, Accelerometer, Vibrator}
	if len(cs) != len(want) {
		t.Fatalf("Components = %v", cs)
	}
	for i := range want {
		if cs[i] != want[i] {
			t.Fatalf("Components = %v, want %v", cs, want)
		}
	}
}

func TestPerceptibility(t *testing.T) {
	for _, c := range []Component{Screen, Speaker, Vibrator} {
		if !MakeSet(c).Perceptible() {
			t.Errorf("%v should be perceptible", c)
		}
	}
	for _, c := range []Component{WiFi, WPS, GPS, Cellular, Accelerometer} {
		if MakeSet(c).Perceptible() {
			t.Errorf("%v should be imperceptible", c)
		}
	}
}

func TestComponentString(t *testing.T) {
	if WiFi.String() != "Wi-Fi" {
		t.Fatalf("WiFi.String = %q", WiFi.String())
	}
	if Component(200).String() != "Component(200)" {
		t.Fatalf("invalid component String = %q", Component(200).String())
	}
	if got := MakeSet(WiFi, WPS).String(); got != "{Wi-Fi,WPS}" {
		t.Fatalf("Set.String = %q", got)
	}
}

func TestWakelockRefcounting(t *testing.T) {
	m := new(WakelockManager)
	var ons, offs []Component
	m.Subscribe(listenerFuncs{
		on:  func(c Component) { ons = append(ons, c) },
		off: func(c Component) { offs = append(offs, c) },
	})

	m.Acquire(MakeSet(WiFi))
	m.Acquire(MakeSet(WiFi, WPS))
	if len(ons) != 2 { // WiFi once (shared), WPS once
		t.Fatalf("ons = %v, want 2 transitions", ons)
	}
	if m.Holders(WiFi) != 2 || m.Holders(WPS) != 1 {
		t.Fatalf("holders = %d/%d", m.Holders(WiFi), m.Holders(WPS))
	}
	m.Release(MakeSet(WiFi))
	if len(offs) != 0 {
		t.Fatalf("premature off transition: %v", offs)
	}
	m.Release(MakeSet(WiFi, WPS))
	if len(offs) != 2 {
		t.Fatalf("offs = %v, want 2 transitions", offs)
	}
	if m.Holders(WiFi) != 0 || m.Holders(WPS) != 0 {
		t.Fatalf("holders after full release = %d/%d", m.Holders(WiFi), m.Holders(WPS))
	}
}

func TestWakelockHeldSet(t *testing.T) {
	m := new(WakelockManager)
	m.Acquire(MakeSet(WiFi, Vibrator))
	for c := Component(0); c < numComponents; c++ {
		if held, want := m.Holders(c) > 0, c == WiFi || c == Vibrator; held != want {
			t.Fatalf("%v held = %t, want %t", c, held, want)
		}
	}
	m.Release(MakeSet(WiFi, Vibrator))
	if m.Holders(WiFi) != 0 || m.Holders(Vibrator) != 0 {
		t.Fatal("held set not empty after release")
	}
}

func TestWakelockOverReleasePanics(t *testing.T) {
	m := new(WakelockManager)
	defer func() {
		if recover() == nil {
			t.Fatal("over-release did not panic")
		}
	}()
	m.Release(MakeSet(WiFi))
}

func TestSubscribeNilPanics(t *testing.T) {
	m := new(WakelockManager)
	defer func() {
		if recover() == nil {
			t.Fatal("nil subscribe did not panic")
		}
	}()
	m.Subscribe(nil)
}

type listenerFuncs struct {
	on, off func(Component)
}

func (l listenerFuncs) ComponentOn(c Component)  { l.on(c) }
func (l listenerFuncs) ComponentOff(c Component) { l.off(c) }

// Property: set algebra laws hold for arbitrary masks restricted to the
// component universe.
func TestPropertySetAlgebra(t *testing.T) {
	universe := Set(1<<uint(NumComponents)) - 1
	prop := func(x, y, z uint16) bool {
		a, b, c := Set(x)&universe, Set(y)&universe, Set(z)&universe
		if a.Union(b) != b.Union(a) || a.Intersect(b) != b.Intersect(a) {
			return false
		}
		if a.Union(b).Union(c) != a.Union(b.Union(c)) {
			return false
		}
		// Distributivity and count consistency.
		if a.Intersect(b.Union(c)) != a.Intersect(b).Union(a.Intersect(c)) {
			return false
		}
		if a.Union(b).Count() != a.Count()+b.Count()-a.Intersect(b).Count() {
			return false
		}
		return a.Intersects(b) == !a.Intersect(b).Empty()
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: after a random interleaving of acquires and matching releases,
// the held set is exactly the multiset balance.
func TestPropertyWakelockBalance(t *testing.T) {
	universe := Set(1<<uint(NumComponents)) - 1
	prop := func(masks []uint16) bool {
		m := new(WakelockManager)
		var held []Set
		for _, raw := range masks {
			s := Set(raw) & universe
			m.Acquire(s)
			held = append(held, s)
		}
		// Release every other acquisition.
		var want [NumComponents]int
		for i, s := range held {
			if i%2 == 0 {
				m.Release(s)
			} else {
				for _, c := range s.Components() {
					want[c]++
				}
			}
		}
		for c := 0; c < NumComponents; c++ {
			if m.Holders(Component(c)) != want[c] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSetJSONRoundTrip(t *testing.T) {
	s := MakeSet(WiFi, Vibrator)
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `["Wi-Fi","Vibrator"]` {
		t.Fatalf("marshal = %s", b)
	}
	var got Set
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got != s {
		t.Fatalf("round trip = %v", got)
	}
	// Empty set.
	b, _ = json.Marshal(Set(0))
	if string(b) != "[]" {
		t.Fatalf("empty marshal = %s", b)
	}
}

func TestSetJSONLegacyBitmask(t *testing.T) {
	var got Set
	if err := json.Unmarshal([]byte("6"), &got); err != nil {
		t.Fatal(err)
	}
	if got != MakeSet(WiFi, WPS) {
		t.Fatalf("bitmask decode = %v", got)
	}
	if err := json.Unmarshal([]byte("65535"), &got); err == nil {
		t.Fatal("out-of-range bitmask accepted")
	}
	if err := json.Unmarshal([]byte(`["Nonsense"]`), &got); err == nil {
		t.Fatal("unknown component accepted")
	}
	if err := json.Unmarshal([]byte(`{"x":1}`), &got); err == nil {
		t.Fatal("object accepted")
	}
}

func TestParseComponent(t *testing.T) {
	c, err := ParseComponent("Wi-Fi")
	if err != nil || c != WiFi {
		t.Fatalf("ParseComponent = %v, %v", c, err)
	}
	if _, err := ParseComponent("Flux Capacitor"); err == nil {
		t.Fatal("unknown name accepted")
	}
}
