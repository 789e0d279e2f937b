// Package hw models the wakelockable hardware components of a mobile
// device and the component sets that alarms acquire.
//
// The paper's hardware-similarity metric (§3.1.1) compares the sets of
// hardware components two alarms wakelock. Only components that alarms can
// acquire autonomously participate; the CPU and memory are essential
// whenever the device is awake and are accounted separately by the device
// model (internal/device) and power accountant (internal/power).
package hw

import (
	"encoding/json"
	"fmt"
	"strings"
)

// Component identifies a single wakelockable hardware component.
type Component uint8

// The component universe. CPU is listed for reporting purposes (the
// wakeup-breakdown table keys its first row on the CPU) but is never part
// of an alarm's wakelocked set.
const (
	CPU Component = iota
	WiFi
	WPS // Wi-Fi/cellular positioning subsystem
	GPS
	Cellular
	Accelerometer
	Speaker
	Vibrator
	Screen
	numComponents
)

// NumComponents is the number of distinct components, for sizing
// per-component tables.
const NumComponents = int(numComponents)

var componentNames = [...]string{
	CPU:           "CPU",
	WiFi:          "Wi-Fi",
	WPS:           "WPS",
	GPS:           "GPS",
	Cellular:      "Cellular",
	Accelerometer: "Accelerometer",
	Speaker:       "Speaker",
	Vibrator:      "Vibrator",
	Screen:        "Screen",
}

// String returns the human-readable component name.
func (c Component) String() string {
	if int(c) < len(componentNames) {
		return componentNames[c]
	}
	return fmt.Sprintf("Component(%d)", uint8(c))
}

// Set is a bitmask of components. The zero Set is empty, which is a
// meaningful state: a newly registered alarm's hardware set is empty until
// its first delivery reveals what it wakelocks (paper §3.1.1 footnote 4).
type Set uint16

// MakeSet builds a Set from individual components.
func MakeSet(cs ...Component) Set {
	var s Set
	for _, c := range cs {
		s |= 1 << c
	}
	return s
}

// Union returns the components in s or t.
func (s Set) Union(t Set) Set { return s | t }

// Intersect returns the components in both s and t.
func (s Set) Intersect(t Set) Set { return s & t }

// Contains reports whether c is in s.
func (s Set) Contains(c Component) bool { return s&(1<<c) != 0 }

// Intersects reports whether s and t share any component.
func (s Set) Intersects(t Set) bool { return s&t != 0 }

// Empty reports whether s has no components.
func (s Set) Empty() bool { return s == 0 }

// Count reports the number of components in s.
func (s Set) Count() int {
	n := 0
	for v := s; v != 0; v &= v - 1 {
		n++
	}
	return n
}

// Components returns the members of s in ascending component order. The
// result has a constant capacity, so when the call inlines into a caller
// that does not keep the slice, the slice lives on the caller's stack:
// the wakelock, device and metrics loops over a set allocate nothing.
func (s Set) Components() []Component {
	cs := make([]Component, 0, NumComponents)
	for c := Component(0); c < numComponents; c++ {
		if s.Contains(c) {
			cs = append(cs, c)
		}
	}
	return cs
}

// String lists the members, e.g. "{Wi-Fi,WPS}". The empty set prints "{}".
func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, c := range s.Components() {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(c.String())
	}
	b.WriteByte('}')
	return b.String()
}

// ParseComponent resolves a component by its String name.
func ParseComponent(name string) (Component, error) {
	for c := Component(0); c < numComponents; c++ {
		if componentNames[c] == name {
			return c, nil
		}
	}
	return 0, fmt.Errorf("hw: unknown component %q", name)
}

// MarshalJSON encodes the set as an array of component names, so
// workload files stay human-editable.
func (s Set) MarshalJSON() ([]byte, error) {
	names := []string{}
	for _, c := range s.Components() {
		names = append(names, c.String())
	}
	return json.Marshal(names)
}

// UnmarshalJSON accepts either an array of component names or a legacy
// numeric bitmask.
func (s *Set) UnmarshalJSON(b []byte) error {
	var names []string
	if err := json.Unmarshal(b, &names); err == nil {
		var set Set
		for _, n := range names {
			c, err := ParseComponent(n)
			if err != nil {
				return err
			}
			set |= 1 << c
		}
		*s = set
		return nil
	}
	var raw uint16
	if err := json.Unmarshal(b, &raw); err != nil {
		return fmt.Errorf("hw: set must be a name array or bitmask: %w", err)
	}
	if raw >= 1<<uint(NumComponents) {
		return fmt.Errorf("hw: bitmask %#x out of range", raw)
	}
	*s = Set(raw)
	return nil
}

// UserPerceptible is the set of components whose activation the user
// notices (paper §3.1.2): the screen, speaker, and vibrator. An alarm that
// wakelocks any of these is a perceptible alarm.
var UserPerceptible = MakeSet(Screen, Speaker, Vibrator)

// Perceptible reports whether the set contains any user-perceptible
// component.
func (s Set) Perceptible() bool { return s.Intersects(UserPerceptible) }

// EnergyHungry is the set of components whose activation dominates a
// delivery's energy (used by the four-level hardware-similarity ablation,
// paper §3.1.1): radios and positioning subsystems.
var EnergyHungry = MakeSet(WiFi, WPS, GPS, Cellular, Screen)
