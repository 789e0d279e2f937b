// Package apps models the resident applications of the paper's
// evaluation (§4.1, Table 3): 18 popular apps whose major alarms have the
// published repeating intervals, window factors (α), static/dynamic
// repetition, and hardware usage — plus the background system alarms and
// occasional one-shot alarms that the paper's CPU wakeup counts include.
//
// Five of the paper's apps behaved irregularly on the real phone and were
// replaced by imitations driven from logged patterns; this reproduction
// necessarily "imitates" all apps the same way, from Table 3 itself, so
// those five are only marked for documentation.
package apps

import (
	"fmt"
	"math/rand"

	"repro/internal/alarm"
	"repro/internal/device"
	"repro/internal/hw"
	"repro/internal/simclock"
)

// Spec describes one application's major alarm.
type Spec struct {
	// Name is the app name from Table 3.
	Name string
	// Period is the repeating interval (ReIn).
	Period simclock.Duration
	// Alpha is the window factor: window = α × period.
	Alpha float64
	// Dynamic is true for dynamic repeating alarms (S/D column).
	Dynamic bool
	// HW is the hardware the alarm's task wakelocks.
	HW hw.Set
	// TaskDur is how long the task holds its hardware. Calibrated per
	// hardware class (Wi-Fi sync ≈2 s, WPS fix ≈3.5 s, notification 1 s,
	// accelerometer burst 2 s, CPU-only housekeeping 0.5 s).
	TaskDur simclock.Duration
	// Imitated marks the five apps the paper replaced by imitations.
	Imitated bool
	// System marks background system-service alarms (not in Table 3);
	// they count only toward the CPU row of the wakeup breakdown.
	System bool
	// NonWakeup registers the alarm as a non-wakeup alarm: it is
	// delivered only while the device happens to be awake (§2.1).
	NonWakeup bool
	// NoSleepBug injects the classic no-sleep energy bug the paper's
	// introduction describes (refs [3,6,11]): the app's task acquires its
	// wakelocks and never releases them, keeping the device awake
	// indefinitely. Used for the anomaly-detection substrate and tests.
	NoSleepBug bool
	// PayloadKB is the differential-sync payload transferred per
	// delivery. Non-zero payloads extend the task's hardware hold by
	// PayloadKB × PayloadKBDur, so payload size scales energy per
	// delivery (the diff-sync archetype; see diffsync.go).
	PayloadKB float64
}

const sec = simclock.Second

var (
	wifi   = hw.MakeSet(hw.WiFi)
	spkVib = hw.MakeSet(hw.Speaker, hw.Vibrator)
	accel  = hw.MakeSet(hw.Accelerometer)
	wps    = hw.MakeSet(hw.WPS)
)

// Table3 returns the paper's app catalog in its published order. The
// first 12 rows (through Alarm Clock) form the light workload; all 18
// form the heavy workload.
func Table3() []Spec {
	return []Spec{
		{Name: "Facebook", Period: 60 * sec, Alpha: 0, Dynamic: true, HW: wifi, TaskDur: 2 * sec},
		{Name: "imo.im", Period: 180 * sec, Alpha: 0, Dynamic: true, HW: wifi, TaskDur: 2 * sec},
		{Name: "Line", Period: 200 * sec, Alpha: 0.75, Dynamic: true, HW: wifi, TaskDur: 2 * sec},
		{Name: "BAND", Period: 202 * sec, Alpha: 0, Dynamic: true, HW: wifi, TaskDur: 2 * sec},
		{Name: "YeeCall", Period: 270 * sec, Alpha: 0, Dynamic: false, HW: wifi, TaskDur: 2 * sec},
		{Name: "JusTalk", Period: 300 * sec, Alpha: 0, Dynamic: false, HW: wifi, TaskDur: 2 * sec},
		{Name: "Weibo", Period: 300 * sec, Alpha: 0, Dynamic: true, HW: wifi, TaskDur: 2 * sec},
		{Name: "KakaoTalk", Period: 600 * sec, Alpha: 0.75, Dynamic: true, HW: wifi, TaskDur: 2 * sec},
		{Name: "Viber", Period: 600 * sec, Alpha: 0.75, Dynamic: true, HW: wifi, TaskDur: 2 * sec},
		{Name: "WeChat", Period: 900 * sec, Alpha: 0.75, Dynamic: true, HW: wifi, TaskDur: 2 * sec},
		{Name: "Messenger", Period: 900 * sec, Alpha: 0.75, Dynamic: false, HW: wifi, TaskDur: 2 * sec},
		{Name: "Alarm Clock", Period: 1800 * sec, Alpha: 0, Dynamic: false, HW: spkVib, TaskDur: 1 * sec},
		{Name: "Drink Water", Period: 900 * sec, Alpha: 0.75, Dynamic: false, HW: spkVib, TaskDur: 1 * sec},
		{Name: "Noom Walk", Period: 60 * sec, Alpha: 0.75, Dynamic: false, HW: accel, TaskDur: 2 * sec, Imitated: true},
		{Name: "Moves", Period: 90 * sec, Alpha: 0.75, Dynamic: false, HW: accel, TaskDur: 2 * sec, Imitated: true},
		{Name: "FollowMee", Period: 180 * sec, Alpha: 0.75, Dynamic: false, HW: wps, TaskDur: 1 * sec, Imitated: true},
		{Name: "Family Locator", Period: 300 * sec, Alpha: 0.75, Dynamic: false, HW: wps, TaskDur: 1 * sec, Imitated: true},
		{Name: "Cell Tracker", Period: 300 * sec, Alpha: 0.75, Dynamic: false, HW: wps, TaskDur: 1 * sec, Imitated: true},
	}
}

// LightWorkload returns the light scenario (§4.1): Alarm Clock plus the
// 11 Wi-Fi-only apps — all imperceptible alarms share the same hardware,
// so only time similarity is exercised.
func LightWorkload() []Spec { return Table3()[:12] }

// HeavyWorkload returns the heavy scenario: all 18 apps, adding the WPS,
// accelerometer, and speaker & vibrator alarms that exercise hardware
// similarity.
func HeavyWorkload() []Spec { return Table3() }

// Workload resolves a built-in workload name — light, heavy or table3 —
// to its app specs. It is the one vocabulary of the single-device
// surfaces (wakesim -workload and the service's run spec).
func Workload(name string) ([]Spec, error) {
	switch name {
	case "light":
		return LightWorkload(), nil
	case "heavy":
		return HeavyWorkload(), nil
	case "table3":
		return Table3(), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want light, heavy, or table3)", name)
}

// SystemSpecs returns a background population of system-service alarms
// (sync adapters, connectivity checks, battery stats...). They wakelock
// nothing beyond the CPU; the paper's CPU wakeup counts include them.
func SystemSpecs() []Spec {
	mk := func(name string, period simclock.Duration, alpha float64, dyn bool) Spec {
		return Spec{Name: name, Period: period, Alpha: alpha, Dynamic: dyn,
			TaskDur: 500 * simclock.Millisecond, System: true}
	}
	// Most system services use exact alarms (α=0), as Android's own
	// services largely did before inexact delivery became the default;
	// this is what keeps the native policy's CPU wakeup count high.
	return []Spec{
		mk("sys.netstats", 60*sec, 0, false),
		mk("sys.connectivity", 120*sec, 0, false),
		mk("sys.sync", 180*sec, 0.5, true),
		mk("sys.batterystats", 300*sec, 0, false),
		mk("sys.dhcp", 600*sec, 0, false),
		mk("sys.ntp", 900*sec, 0.5, false),
		mk("sys.logrotate", 900*sec, 0, false),
		mk("sys.backup", 1800*sec, 0.5, false),
	}
}

// FaultInjector perturbs application behaviour at install and delivery
// time. internal/fault provides the standard implementation; the
// interface lives here so this package does not depend on the fault
// model. A nil injector means every app is well-behaved.
type FaultInjector interface {
	// InstallSkew returns a clock-skew offset added to app's first
	// nominal time (zero for well-behaved apps).
	InstallSkew(app string) simclock.Duration
	// PerturbTask maps one delivery's nominal task duration to an extra
	// pre-task latency and the possibly faulted duration (wakelock
	// leaks, overruns).
	PerturbTask(app string, dur simclock.Duration) (delay, out simclock.Duration)
}

// Runtime installs application specs on a device + alarm manager pair,
// turning each Spec into a live alarm whose delivery callback runs the
// app's task on the device and reveals its hardware set. Clock, Dev and
// Mgr are required.
type Runtime struct {
	Clock *simclock.Clock
	Dev   *device.Device
	Mgr   *alarm.Manager
	// Beta is the grace factor: grace = β × period, clamped to
	// [window, period) (§3.1.2). The paper's experiments use 0.96.
	Beta float64
	// Rng staggers app registration phases, as real apps start at
	// arbitrary times. A nil Rng makes phases deterministic (every alarm
	// registers with nominal = now + period).
	Rng *rand.Rand
	// AlignedPhases installs every app at the deterministic phase
	// offset = its period instead of a random stagger, so devices
	// sharing a catalog land on the same period grids — the canonical
	// thundering-herd fleet (a reboot/update wave synchronizing sync
	// schedules) that the backend co-simulation stresses.
	AlignedPhases bool
	// Jitter randomizes each task's duration uniformly within
	// [1−Jitter, 1+Jitter]× its nominal value, modelling the paper's
	// observation that achievable data rates "vary widely over time"
	// (§1, ref [8]). Zero means deterministic durations. Requires Rng.
	Jitter float64
	// Faults, when non-nil, lets a fault-injection plan perturb app
	// behaviour (see FaultInjector). Applied after Jitter, so a leak's
	// infinite hold is never re-randomized away.
	Faults FaultInjector
}

// Build converts a Spec to an Alarm registered to fire first at the
// given nominal time.
func (r *Runtime) Build(s Spec, nominal simclock.Time) *alarm.Alarm {
	rep := alarm.Static
	if s.Dynamic {
		rep = alarm.Dynamic
	}
	kind := alarm.Wakeup
	if s.NonWakeup {
		kind = alarm.NonWakeup
	}
	if s.PayloadKB > 0 {
		s.TaskDur += simclock.Duration(s.PayloadKB * float64(PayloadKBDur))
	}
	window := simclock.Duration(float64(s.Period) * s.Alpha)
	grace := simclock.Duration(float64(s.Period) * r.Beta)
	if grace < window {
		grace = window
	}
	if grace >= s.Period {
		grace = s.Period - simclock.Millisecond
	}
	spec := s
	a := &alarm.Alarm{
		ID:          s.Name,
		App:         s.Name,
		Kind:        kind,
		Repeat:      rep,
		Nominal:     nominal,
		Period:      s.Period,
		Window:      window,
		Grace:       grace,
		DeclaredDur: s.TaskDur,
	}
	a.OnDeliver = func(at simclock.Time) hw.Set {
		dur := spec.TaskDur
		if r.Jitter > 0 && r.Rng != nil && dur > 0 {
			f := 1 + r.Jitter*(2*r.Rng.Float64()-1)
			dur = simclock.Duration(float64(dur) * f)
			if dur < simclock.Millisecond {
				dur = simclock.Millisecond
			}
		}
		if spec.NoSleepBug {
			// The wakelock release never comes (practically: not within
			// any simulation horizon).
			dur = 100000 * simclock.Hour
		}
		var delay simclock.Duration
		if r.Faults != nil {
			delay, dur = r.Faults.PerturbTask(spec.Name, dur)
		}
		r.Dev.RunTaskDelayed(spec.Name, spec.HW, delay, dur)
		return spec.HW
	}
	return a
}

// Install registers every spec with a phase-staggered first nominal
// time in now + (0, period], shifted further by any clock skew the
// fault injector assigns (clamped so the first firing stays in the
// future).
func (r *Runtime) Install(specs []Spec) error {
	now := r.Clock.Now()
	for _, s := range specs {
		if s.Period <= 0 {
			return fmt.Errorf("apps: install %s: non-positive period %v", s.Name, s.Period)
		}
		offset := s.Period
		if r.Rng != nil && !r.AlignedPhases {
			offset = simclock.Duration(1 + r.Rng.Int63n(int64(s.Period)))
		}
		if r.Faults != nil {
			offset += r.Faults.InstallSkew(s.Name)
			if offset < simclock.Millisecond {
				offset = simclock.Millisecond
			}
		}
		if err := r.Mgr.Set(r.Build(s, now.Add(offset))); err != nil {
			return fmt.Errorf("apps: install %s: %w", s.Name, err)
		}
	}
	return nil
}

// ScheduleOneShots registers n one-shot alarms at random times across
// the horizon, modelling sporadic app timeouts. One-shot alarms are
// deemed perceptible (§3.1.2) and so are always delivered within their
// window.
func (r *Runtime) ScheduleOneShots(horizon simclock.Duration, n int) error {
	if r.Rng == nil {
		return fmt.Errorf("apps: one-shots need a seeded rng")
	}
	for i := 0; i < n; i++ {
		at := r.Clock.Now().Add(simclock.Duration(1 + r.Rng.Int63n(int64(horizon))))
		a := &alarm.Alarm{
			ID:      fmt.Sprintf("oneshot.%d", i),
			App:     "oneshot",
			Kind:    alarm.Wakeup,
			Repeat:  alarm.OneShot,
			Nominal: at,
			Window:  30 * sec,
			Grace:   30 * sec,
		}
		a.OnDeliver = func(simclock.Time) hw.Set {
			r.Dev.RunTaskTagged(a.ID, 0, 500*simclock.Millisecond)
			return 0
		}
		if err := r.Mgr.Set(a); err != nil {
			return fmt.Errorf("apps: one-shot %d: %w", i, err)
		}
	}
	return nil
}
