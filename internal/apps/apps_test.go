package apps

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/alarm"
	"repro/internal/device"
	"repro/internal/hw"
	"repro/internal/power"
	"repro/internal/simclock"
)

func TestTable3Catalog(t *testing.T) {
	specs := Table3()
	if len(specs) != 18 {
		t.Fatalf("Table 3 has %d apps, want 18", len(specs))
	}
	// Spot-check published rows.
	fb := specs[0]
	if fb.Name != "Facebook" || fb.Period != 60*sec || fb.Alpha != 0 || !fb.Dynamic || fb.HW != wifi {
		t.Fatalf("Facebook row wrong: %+v", fb)
	}
	line := specs[2]
	if line.Name != "Line" || line.Period != 200*sec || line.Alpha != 0.75 || !line.Dynamic {
		t.Fatalf("Line row wrong: %+v", line)
	}
	clock := specs[11]
	if clock.Name != "Alarm Clock" || clock.Period != 1800*sec || clock.HW != spkVib || clock.Dynamic {
		t.Fatalf("Alarm Clock row wrong: %+v", clock)
	}
	tracker := specs[17]
	if tracker.Name != "Cell Tracker" || tracker.Period != 300*sec || tracker.HW != wps || !tracker.Imitated {
		t.Fatalf("Cell Tracker row wrong: %+v", tracker)
	}
	// Exactly five imitated apps.
	n := 0
	for _, s := range specs {
		if s.Imitated {
			n++
		}
	}
	if n != 5 {
		t.Fatalf("imitated apps = %d, want 5", n)
	}
}

func TestWorkloads(t *testing.T) {
	light, heavy := LightWorkload(), HeavyWorkload()
	if len(light) != 12 || len(heavy) != 18 {
		t.Fatalf("light=%d heavy=%d", len(light), len(heavy))
	}
	// Light: only Wi-Fi plus the Alarm Clock's speaker & vibrator.
	for _, s := range light {
		if s.HW != wifi && s.HW != spkVib {
			t.Fatalf("light workload contains %v", s)
		}
	}
	// Heavy adds WPS and accelerometer users.
	seen := map[hw.Set]bool{}
	for _, s := range heavy {
		seen[s.HW] = true
	}
	if !seen[wps] || !seen[accel] {
		t.Fatal("heavy workload missing WPS/accelerometer apps")
	}
}

// TestWorkloadByNameIsShared: Workload answers each built-in name with
// its catalog, built once, so a lookup copies nothing, and an append to
// what it returns cannot write into the shared array.
func TestWorkloadByNameIsShared(t *testing.T) {
	for name, want := range map[string][]Spec{"light": LightWorkload(), "heavy": HeavyWorkload(), "table3": Table3()} {
		got, err := Workload(name)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Workload(%q) = %d specs, not the catalog's %d", name, len(got), len(want))
		}
		if cap(got) != len(got) {
			t.Fatalf("Workload(%q) has room to append in place: len %d, cap %d", name, len(got), cap(got))
		}
	}
	if n := testing.AllocsPerRun(10, func() { Workload("heavy") }); n != 0 {
		t.Fatalf("Workload allocates %v objects per lookup, want 0", n)
	}
	if _, err := Workload("gigantic"); err == nil || !strings.Contains(err.Error(), "unknown workload") {
		t.Fatalf("Workload(gigantic) = %v, want an unknown workload error", err)
	}
}

func TestSystemSpecs(t *testing.T) {
	for _, s := range SystemSpecs() {
		if !s.System || !s.HW.Empty() {
			t.Fatalf("system spec %+v must be CPU-only", s)
		}
		if s.Period <= 0 {
			t.Fatalf("system spec %+v has no period", s)
		}
	}
}

func newRuntime(t *testing.T, beta float64) (*simclock.Clock, *Runtime, *[]alarm.Record) {
	t.Helper()
	c := simclock.New()
	p := power.Nexus5()
	p.WakeLatencyMin, p.WakeLatencyMax = 0, 0
	d := device.New(c, p, 1)
	m := alarm.NewManager(c, d, alarm.Native{})
	recs := &[]alarm.Record{}
	m.SetRecordFunc(func(r alarm.Record) { *recs = append(*recs, r) })
	r := new(Runtime)
	r.Reset(c, d, m, 1)
	r.Beta = beta
	return c, r, recs
}

func TestBuildIntervals(t *testing.T) {
	_, r, _ := newRuntime(t, 0.96)
	a := r.Build(Table3()[2], simclock.Time(200*sec)) // Line: 200 s, α=0.75, dynamic
	if a.Window != 150*sec {
		t.Fatalf("window = %v, want 150s", a.Window)
	}
	if a.Grace != 192*sec {
		t.Fatalf("grace = %v, want 192s", a.Grace)
	}
	if a.Repeat != alarm.Dynamic || a.Kind != alarm.Wakeup {
		t.Fatalf("alarm = %v", a)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildGraceClamps(t *testing.T) {
	_, r, _ := newRuntime(t, 0.5) // β below α
	a := r.Build(Table3()[2], simclock.Time(200*sec))
	if a.Grace != a.Window {
		t.Fatalf("grace %v must clamp up to window %v", a.Grace, a.Window)
	}
	_, r2, _ := newRuntime(t, 1.5) // β ≥ 1
	b := r2.Build(Table3()[2], simclock.Time(200*sec))
	if b.Grace >= b.Period {
		t.Fatalf("grace %v must stay below period %v", b.Grace, b.Period)
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInstallAndRun(t *testing.T) {
	c, r, recs := newRuntime(t, 0.96)
	if err := r.Install(LightWorkload()); err != nil {
		t.Fatal(err)
	}
	if r.mgr.Pending() != 12 {
		t.Fatalf("pending = %d", r.mgr.Pending())
	}
	c.Run(simclock.Time(10 * simclock.Minute))
	if len(*recs) == 0 {
		t.Fatal("no deliveries in 10 minutes")
	}
	// Facebook (60 s dynamic) must have delivered several times and
	// learned its hardware.
	fb := 0
	for _, rec := range *recs {
		if rec.App == "Facebook" {
			fb++
			if rec.HW != wifi {
				t.Fatalf("Facebook delivery hw = %v", rec.HW)
			}
		}
	}
	if fb < 5 {
		t.Fatalf("Facebook deliveries = %d in 10 min, want ≥5", fb)
	}
}

func TestInstallStaggeredPhases(t *testing.T) {
	c := simclock.New()
	p := power.Nexus5()
	d := device.New(c, p, 1)
	m := alarm.NewManager(c, d, alarm.NoAlign{})
	r := new(Runtime)
	r.Reset(c, d, m, 42)
	r.Beta = 0.96
	if err := r.Install(LightWorkload()); err != nil {
		t.Fatal(err)
	}
	// With a seeded rng, first nominals differ across apps.
	nominals := map[simclock.Time]int{}
	for _, e := range m.QueueFor(alarm.Wakeup).Entries() {
		for _, a := range e.Alarms {
			nominals[a.Nominal]++
		}
	}
	if len(nominals) < 8 {
		t.Fatalf("only %d distinct phases", len(nominals))
	}
}

func TestScheduleOneShots(t *testing.T) {
	c, r, recs := newRuntime(t, 0.96)
	r.Rng = simclock.Rand(7)
	if err := r.ScheduleOneShots(simclock.Duration(simclock.Hour), 5); err != nil {
		t.Fatal(err)
	}
	c.Run(simclock.Time(simclock.Hour + simclock.Minute))
	n := 0
	for _, rec := range *recs {
		if rec.App == "oneshot" {
			n++
			if !rec.Perceptible {
				t.Fatal("one-shot delivery must be classified perceptible")
			}
		}
	}
	if n != 5 {
		t.Fatalf("one-shot deliveries = %d, want 5", n)
	}
	// Without an rng, scheduling fails loudly.
	r.Rng = nil
	if err := r.ScheduleOneShots(simclock.Duration(simclock.Hour), 1); err == nil {
		t.Fatal("nil-rng ScheduleOneShots succeeded")
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSpecs(&buf, Table3()); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSpecs(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := Table3()
	if len(got) != len(want) {
		t.Fatalf("specs = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("spec %d round-trip mismatch:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

func TestReadSpecsHumanFormat(t *testing.T) {
	in := `[{"name":"x","period_s":60,"alpha":0.5,"dynamic":true,"hw":["Wi-Fi","WPS"],"task_s":1.5}]`
	specs, err := ReadSpecs(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	s := specs[0]
	if s.Period != 60*sec || s.Alpha != 0.5 || !s.Dynamic ||
		s.HW != hw.MakeSet(hw.WiFi, hw.WPS) || s.TaskDur != 1500*simclock.Millisecond {
		t.Fatalf("spec = %+v", s)
	}
}

func TestReadSpecsValidation(t *testing.T) {
	bad := []string{
		`not json`,
		`[{"name":"","period_s":60}]`,
		`[{"name":"x","period_s":0}]`,
		`[{"name":"x","period_s":60,"alpha":1.5}]`,
		`[{"name":"x","period_s":60,"task_s":-1}]`,
		`[{"name":"x","period_s":60,"hw":["Warp Drive"]}]`,
	}
	for i, in := range bad {
		if _, err := ReadSpecs(strings.NewReader(in)); err == nil {
			t.Errorf("case %d accepted: %s", i, in)
		}
	}
}
