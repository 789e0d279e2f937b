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
// app's task on the device and reveals its hardware set. The zero
// Runtime is wired up by Reset, the one way to ready it for a
// simulation; it must not be copied after its first Build.
//
// The alarms a Runtime builds live in a slab that outlives the
// simulation: each slot holds an alarm, its spec and a delivery
// callback bound once, and Reset frees every slot for the next
// simulation. A runtime reused across simulations therefore builds its
// alarms, callbacks and one-shot IDs once.
type Runtime struct {
	clock *simclock.Clock
	dev   *device.Device
	mgr   *alarm.Manager
	// Beta is the grace factor: grace = β × period, clamped to
	// [window, period) (§3.1.2). The paper's experiments use 0.96.
	Beta float64
	// Rng staggers app registration phases, as real apps start at
	// arbitrary times. Reset reseeds it; a nil Rng makes phases
	// deterministic (every alarm registers with nominal = now + period).
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

	// slots is the alarm slab; the first used of them belong to this
	// simulation. oneShotIDs[i] is "oneshot.i", formatted once.
	slots      []*slot
	used       int
	oneShotIDs []string
}

// slot is one alarm of the slab: the alarm, the spec it runs and its
// delivery callback, deliver bound once. A slot is handed out by
// nextSlot and stays put while its alarm is queued.
type slot struct {
	r         *Runtime
	alarm     alarm.Alarm
	spec      Spec
	deliverFn func(simclock.Time) hw.Set
}

// deliver runs the slot's task on the device and reveals its hardware.
// A one-shot runs its task as declared: jitter, the no-sleep bug and
// faults perturb only the workload's apps.
func (sl *slot) deliver(simclock.Time) hw.Set {
	r, s := sl.r, &sl.spec
	dur := s.TaskDur
	var delay simclock.Duration
	if sl.alarm.Repeat != alarm.OneShot {
		if r.Jitter > 0 && r.Rng != nil && dur > 0 {
			f := 1 + r.Jitter*(2*r.Rng.Float64()-1)
			dur = simclock.Duration(float64(dur) * f)
			if dur < simclock.Millisecond {
				dur = simclock.Millisecond
			}
		}
		if s.NoSleepBug {
			// The wakelock release never comes (practically: not within
			// any simulation horizon).
			dur = 100000 * simclock.Hour
		}
		if r.Faults != nil {
			delay, dur = r.Faults.PerturbTask(s.Name, dur)
		}
	}
	r.dev.RunTaskDelayed(s.Name, s.HW, delay, dur)
	return s.HW
}

// Reset readies r for a simulation on clock, dev and mgr: Rng reseeded
// to seed, Beta, AlignedPhases, Jitter and Faults at their zero values,
// and every slot of the slab free. It keeps the slab, its bound
// callbacks and the one-shot IDs. mgr must hold none of the alarms r
// built before: they are rewritten as the slots are handed out again.
func (r *Runtime) Reset(clock *simclock.Clock, dev *device.Device, mgr *alarm.Manager, seed int64) {
	if clock == nil || dev == nil || mgr == nil {
		panic("apps: Reset with nil clock, device or manager")
	}
	r.clock, r.dev, r.mgr = clock, dev, mgr
	r.Rng = simclock.Reseed(r.Rng, seed)
	r.Beta, r.AlignedPhases, r.Jitter, r.Faults = 0, false, 0, nil
	r.used = 0
}

// nextSlot hands out the slab's next free slot, growing the slab when
// every slot is taken.
func (r *Runtime) nextSlot() *slot {
	if r.used == len(r.slots) {
		sl := &slot{r: r}
		sl.deliverFn = sl.deliver
		r.slots = append(r.slots, sl)
	}
	sl := r.slots[r.used]
	r.used++
	return sl
}

// Build converts a Spec to an Alarm registered to fire first at the
// given nominal time. The alarm is a slot of r's slab, written whole:
// nothing an earlier simulation taught it (HW, HWKnown, Deliveries)
// survives.
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
	sl := r.nextSlot()
	sl.spec = s
	sl.alarm = alarm.Alarm{
		ID:          s.Name,
		App:         s.Name,
		Kind:        kind,
		Repeat:      rep,
		Nominal:     nominal,
		Period:      s.Period,
		Window:      window,
		Grace:       grace,
		DeclaredDur: s.TaskDur,
		OnDeliver:   sl.deliverFn,
	}
	return &sl.alarm
}

// Install registers every spec with a phase-staggered first nominal
// time in now + (0, period], shifted further by any clock skew the
// fault injector assigns (clamped so the first firing stays in the
// future).
func (r *Runtime) Install(specs []Spec) error {
	now := r.clock.Now()
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
		if err := r.mgr.Set(r.Build(s, now.Add(offset))); err != nil {
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
		at := r.clock.Now().Add(simclock.Duration(1 + r.Rng.Int63n(int64(horizon))))
		for len(r.oneShotIDs) <= i {
			r.oneShotIDs = append(r.oneShotIDs, fmt.Sprintf("oneshot.%d", len(r.oneShotIDs)))
		}
		sl := r.nextSlot()
		sl.spec = Spec{Name: r.oneShotIDs[i], TaskDur: 500 * simclock.Millisecond}
		sl.alarm = alarm.Alarm{
			ID:        sl.spec.Name,
			App:       "oneshot",
			Kind:      alarm.Wakeup,
			Repeat:    alarm.OneShot,
			Nominal:   at,
			Window:    30 * sec,
			Grace:     30 * sec,
			OnDeliver: sl.deliverFn,
		}
		if err := r.mgr.Set(&sl.alarm); err != nil {
			return fmt.Errorf("apps: one-shot %d: %w", i, err)
		}
	}
	return nil
}
