// Package fleet simulates populations of heterogeneous devices — the
// step from "one simulated phone" to the fleet a production wakeup-
// management service would face. A Spec describes seeded distributions
// over device configurations (app mixes, push and screen-session rates,
// battery capacity, optional fault plans); the runner samples N devices,
// streams their 2×N runs through one sim.Stream on the ordered run pool
// (internal/pool: no batches, results delivered in run order, at most
// 128 runs prepared but not yet folded), and folds each device's pair
// into exactly mergeable accumulators (stats.Acc), never retaining
// per-run Records or traces.
//
// Determinism contract: device i's configuration is a pure function of
// (Spec, i), and the accumulators merge exactly, so a fleet's JSON
// aggregate is byte-identical for a fixed Spec across any worker count,
// shard size or process count.
package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"

	"repro/internal/apps"
	"repro/internal/backend"
	"repro/internal/fault"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/simclock"
)

// Range is a uniform distribution over [Min, Max]. Min == Max pins the
// value; the zero Range pins 0.
type Range struct {
	Min float64 `json:"min"`
	Max float64 `json:"max"`
}

// sample draws uniformly from the range.
func (r Range) sample(rng *rand.Rand) float64 {
	if r.Max <= r.Min {
		return r.Min
	}
	return r.Min + rng.Float64()*(r.Max-r.Min)
}

func (r Range) validate(name string, lo, hi float64) error {
	for _, v := range []float64{r.Min, r.Max} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("fleet: non-finite %s bound %v", name, v)
		}
	}
	if r.Min > r.Max {
		return fmt.Errorf("fleet: %s range [%v, %v] has min > max", name, r.Min, r.Max)
	}
	if r.Min < lo || r.Max > hi {
		return fmt.Errorf("fleet: %s range [%v, %v] outside [%v, %v]", name, r.Min, r.Max, lo, hi)
	}
	return nil
}

// IntRange is a uniform distribution over the integers [Min, Max].
type IntRange struct {
	Min int `json:"min"`
	Max int `json:"max"`
}

func (r IntRange) sample(rng *rand.Rand) int {
	if r.Max <= r.Min {
		return r.Min
	}
	return r.Min + rng.Intn(r.Max-r.Min+1)
}

func (r IntRange) validate(name string, lo, hi int) error {
	if r.Min > r.Max {
		return fmt.Errorf("fleet: %s range [%d, %d] has min > max", name, r.Min, r.Max)
	}
	if r.Min < lo || r.Max > hi {
		return fmt.Errorf("fleet: %s range [%d, %d] outside [%d, %d]", name, r.Min, r.Max, lo, hi)
	}
	return nil
}

// maxDevices bounds a fleet; a larger population is a typo, not a plan
// (10M devices × 2 policies would run for weeks on one host).
const maxDevices = 10_000_000

// maxAppsPerDevice bounds the sampled app mix. Beyond the catalog size
// the mix wraps with replicated (suffixed) apps, as real users install
// several apps with near-identical sync behaviour.
const maxAppsPerDevice = 64

// Spec describes a population of heterogeneous devices. The zero value
// of every optional field selects the documented default; Devices is
// required.
type Spec struct {
	// Devices is the population size N.
	Devices int `json:"devices"`
	// Seed drives every sampling decision and the per-device simulation
	// seeds. Fleets with equal Spec values are byte-identical.
	Seed int64 `json:"seed"`
	// Hours is the per-device standby horizon (default 3, the paper's).
	Hours float64 `json:"hours,omitempty"`
	// Beta is the grace factor every device runs with (default 0.96).
	Beta float64 `json:"beta,omitempty"`
	// BasePolicy and TestPolicy are compared per device (defaults
	// NATIVE vs SIMTY).
	BasePolicy string `json:"base_policy,omitempty"`
	TestPolicy string `json:"test_policy,omitempty"`
	// SystemAlarms installs the background system-service population on
	// every device.
	SystemAlarms bool `json:"system_alarms,omitempty"`
	// Apps is the per-device app-mix size, drawn uniformly and then
	// sampled without replacement from the Table 3 catalog (wrapping
	// with replicated apps past the catalog size). Default [4, 12].
	Apps IntRange `json:"apps,omitempty"`
	// OneShots is the per-device sporadic one-shot alarm count
	// (default pinned 0). Unlike Apps and BatteryScale, the zero range
	// is a valid choice here, so it is not re-defaulted.
	OneShots IntRange `json:"one_shots,omitempty"`
	// PushesPerHour is the per-device external-wakeup rate (default
	// pinned 0).
	PushesPerHour Range `json:"pushes_per_hour,omitempty"`
	// ScreensPerHour is the per-device screen-session rate (default
	// pinned 0).
	ScreensPerHour Range `json:"screens_per_hour,omitempty"`
	// TaskJitter is the per-device task-duration jitter, in [0, 1)
	// (default pinned 0).
	TaskJitter Range `json:"task_jitter,omitempty"`
	// BatteryScale scales the Nexus 5 battery capacity per device,
	// modelling pack heterogeneity and aging (default pinned 1).
	BatteryScale Range `json:"battery_scale,omitempty"`
	// LeakFraction is the probability that a device carries a
	// held-too-long wakelock leak in one random installed app,
	// modelling the paper's no-sleep-bug population (default 0).
	LeakFraction float64 `json:"leak_fraction,omitempty"`
	// ZeroWakeLatency removes the stochastic resume latency on every
	// device. With real latency even NATIVE delivers a handful of α=0
	// alarms a few hundred milliseconds past their window (the paper's
	// Figure 4 ablation), so guarantee-checking runs — "the policy
	// never postpones a perceptible alarm" — set this to isolate policy
	// behaviour from hardware resume time.
	ZeroWakeLatency bool `json:"zero_wake_latency,omitempty"`
	// Backend, when non-nil, enables the backend co-simulation on every
	// device (reconnect latency, retry pipeline, suspend guard) and adds
	// the server-queue replay of the fleet's merged request arrivals to
	// each policy's summary (see internal/backend). Nil keeps the fleet
	// aggregate byte-identical to the pre-backend layout.
	Backend *backend.Model `json:"backend,omitempty"`
	// AlignedPhases installs every app at phase offset = its period on
	// every device, synchronizing the fleet's sync schedules — the
	// thundering-herd scenario the herd experiment measures.
	AlignedPhases bool `json:"aligned_phases,omitempty"`
	// Diurnal runs every device against the canonical day profile
	// (apps.DefaultDay): push/screen rates modulate over activity
	// phases and context-aware policies see the profile as their
	// activity oracle. False keeps sampling and simulation
	// byte-identical to the pre-diurnal fleet.
	Diurnal bool `json:"diurnal,omitempty"`
	// Catalog selects the app catalog devices sample their mixes from:
	// "" or "table3" (the paper's 18 apps), "diffsync" (the
	// differential-sync archetypes whose payload sizes scale energy
	// per delivery), or "mixed" (light Table 3 + diff-sync).
	Catalog string `json:"catalog,omitempty"`
}

// WithDefaults fills zero fields with the documented defaults.
func (s Spec) WithDefaults() Spec {
	if s.Hours == 0 {
		s.Hours = 3
	}
	if s.Beta == 0 {
		s.Beta = sim.DefaultBeta
	}
	if s.BasePolicy == "" {
		s.BasePolicy = "NATIVE"
	}
	if s.TestPolicy == "" {
		s.TestPolicy = "SIMTY"
	}
	if s.Apps == (IntRange{}) {
		s.Apps = IntRange{Min: 4, Max: 12}
	}
	if s.BatteryScale == (Range{}) {
		s.BatteryScale = Range{Min: 1, Max: 1}
	}
	return s
}

// Validate checks the spec after defaulting. It is total over arbitrary
// JSON input: every violation comes back as an error, never a panic or
// a poisoned simulation config.
func (s Spec) Validate() error {
	if s.Devices <= 0 {
		return fmt.Errorf("fleet: non-positive device count %d", s.Devices)
	}
	if s.Devices > maxDevices {
		return fmt.Errorf("fleet: %d devices exceeds the %d cap", s.Devices, maxDevices)
	}
	if _, err := simclock.Horizon(s.Hours); err != nil {
		return fmt.Errorf("fleet: %w", err)
	}
	if math.IsNaN(s.Beta) || !(s.Beta > 0 && s.Beta < 1) {
		return fmt.Errorf("fleet: grace factor %v outside (0, 1)", s.Beta)
	}
	for _, p := range []string{s.BasePolicy, s.TestPolicy} {
		if err := sim.CheckPolicy(p); err != nil {
			return fmt.Errorf("fleet: %w", err)
		}
	}
	if err := s.Apps.validate("apps", 1, maxAppsPerDevice); err != nil {
		return err
	}
	if err := s.OneShots.validate("one-shots", 0, 1000); err != nil {
		return err
	}
	if err := s.PushesPerHour.validate("pushes-per-hour", 0, 1000); err != nil {
		return err
	}
	if err := s.ScreensPerHour.validate("screens-per-hour", 0, 1000); err != nil {
		return err
	}
	if err := s.TaskJitter.validate("task-jitter", 0, 0.999); err != nil {
		return err
	}
	if err := s.BatteryScale.validate("battery-scale", 0.01, 100); err != nil {
		return err
	}
	if math.IsNaN(s.LeakFraction) || s.LeakFraction < 0 || s.LeakFraction > 1 {
		return fmt.Errorf("fleet: leak fraction %v outside [0, 1]", s.LeakFraction)
	}
	if s.Backend != nil {
		if err := s.Backend.Validate(); err != nil {
			return fmt.Errorf("fleet: %w", err)
		}
	}
	if _, err := catalogFor(s.Catalog); err != nil {
		return err
	}
	return nil
}

// The app catalogs devices sample from, the profile a device's battery
// scale applies to, and the day a diurnal fleet runs against. Sampling
// and Config copy what they change, so every device of every fleet
// shares these read-only values.
var (
	table3Catalog   = apps.Table3()
	diffSyncCatalog = apps.DiffSyncWorkload()
	mixedCatalog    = apps.MixedWorkload()
	nexus5          = power.Nexus5()
	defaultDay      = apps.DefaultDay()
)

// catalogFor resolves a spec's catalog name to its app list, shared and
// read-only. The empty name is the historical default (Table 3), kept
// distinct from an explicit "table3" only in spelling so pre-catalog
// specs hash and sample unchanged.
func catalogFor(name string) ([]apps.Spec, error) {
	switch name {
	case "", "table3":
		return table3Catalog, nil
	case "diffsync":
		return diffSyncCatalog, nil
	case "mixed":
		return mixedCatalog, nil
	default:
		return nil, fmt.Errorf("fleet: unknown catalog %q (want table3, diffsync, or mixed)", name)
	}
}

// ReadSpec parses and validates a JSON fleet spec.
func ReadSpec(r io.Reader) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("fleet: decode spec: %w", err)
	}
	if err := s.WithDefaults().Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// Device is one sampled member of the fleet: everything that varies
// across the population, ready to be turned into per-policy run configs.
type Device struct {
	// Index is the device's position in the fleet (0-based).
	Index int
	// Seed is the device's private simulation seed, decorrelated from
	// its neighbours by a 64-bit mix of (Spec.Seed, Index).
	Seed int64
	// Workload is the sampled app mix.
	Workload []apps.Spec
	// OneShots, PushesPerHour, ScreensPerHour, TaskJitter, and
	// BatteryScale are the sampled per-device knobs.
	OneShots       int
	PushesPerHour  float64
	ScreensPerHour float64
	TaskJitter     float64
	BatteryScale   float64
	// LeakApp, when non-empty, names the installed app whose wakelock
	// leaks (held-too-long) on this device.
	LeakApp string
}

// mix decorrelates per-device RNG streams with a splitmix64-style
// avalanche, so device i+1 is not device i advanced by a few draws (the
// failure mode of seed+i schemes feeding the same generator family).
func mix(seed int64, i int) int64 {
	z := uint64(seed) ^ 0x9e3779b97f4a7c15*uint64(i+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// inputs is the storage one device's sampled inputs live in: the
// Device with its app mix, the scratch its app permutation is drawn
// into, and the battery-scaled profile and fault plan its configs point
// at. SampleDevice and Config run on fresh inputs; a fleet run recycles
// them (runDevices), so a warm fleet samples without allocating.
type inputs struct {
	Device
	perm    []int
	profile power.Profile
	leak    [1]fault.Leak
	plan    fault.Plan
}

// SampleDevice draws device i's configuration from the spec. It is a
// pure function of (spec, i): the draw order below is fixed and
// documented because the determinism contract depends on it — app-mix
// size, app permutation, one-shots, pushes, screens, jitter, battery
// scale, then the leak decision.
func (s Spec) SampleDevice(i int) Device {
	var in inputs
	s.WithDefaults().sample(i, &in)
	return in.Device
}

// sample draws device i into in, over whatever an earlier device left
// there, on a source seeded to mix(s.Seed, i). s has its defaults
// applied.
func (s Spec) sample(i int, in *inputs) {
	simclock.Draw(mix(s.Seed, i), func(rng *rand.Rand) { s.sampleDevice(i, rng, in) })
}

// sampleDevice is SampleDevice's draw sequence.
func (s Spec) sampleDevice(i int, rng *rand.Rand, in *inputs) {
	d := &in.Device
	*d = Device{Index: i, Seed: mix(^s.Seed, i), Workload: d.Workload[:0]}

	catalog, err := catalogFor(s.Catalog)
	if err != nil {
		// Validate rejects unknown catalogs before sampling can run;
		// reaching this means a caller skipped validation.
		panic(err)
	}
	n := s.Apps.sample(rng)
	if n > maxAppsPerDevice {
		n = maxAppsPerDevice
	}
	in.perm = perm(rng, in.perm, len(catalog))
	// Room for the spec's largest mix, so that recycled inputs grow once.
	d.Workload = slices.Grow(d.Workload, min(s.Apps.Max, maxAppsPerDevice))
	for j := 0; j < n; j++ {
		spec := catalog[in.perm[j%len(catalog)]]
		if round := j / len(catalog); round > 0 {
			// Wrapped draws replicate an app under a distinct name, as
			// the Scaling experiment does for dense populations.
			spec.Name = fmt.Sprintf("%s#%d", spec.Name, round)
		}
		d.Workload = append(d.Workload, spec)
	}

	d.OneShots = s.OneShots.sample(rng)
	d.PushesPerHour = s.PushesPerHour.sample(rng)
	d.ScreensPerHour = s.ScreensPerHour.sample(rng)
	d.TaskJitter = s.TaskJitter.sample(rng)
	d.BatteryScale = s.BatteryScale.sample(rng)
	if s.LeakFraction > 0 && rng.Float64() < s.LeakFraction {
		d.LeakApp = d.Workload[rng.Intn(len(d.Workload))].Name
	}
}

// perm returns rng.Perm(n) in p's array, grown as need be, after the
// same draws: the permutation and the source's next state are Perm's.
// Go 1 fixes Perm's algorithm, draws included, so the two cannot drift.
// Each step writes the entry it reads when j == i, so whatever p held
// before does not matter.
func perm(rng *rand.Rand, p []int, n int) []int {
	p = slices.Grow(p[:0], n)[:n]
	for i := range p {
		j := rng.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Config assembles the device's run configuration under one policy.
// Configs of the same device differ only in the policy, so a base/test
// pair is a controlled comparison. Like SampleDevice it expects a
// validated spec: Validate bounds the horizon Config converts.
func (s Spec) Config(d Device, policy string) sim.Config {
	in := &inputs{Device: d}
	return s.WithDefaults().config(in, deviceName(d.Index), policy)
}

// config is Config for the device in holds, named name: the
// battery-scaled profile and the leak plan it sets are written into in,
// so the configuration points into in. s has its defaults applied.
func (s Spec) config(in *inputs, name, policy string) sim.Config {
	d := &in.Device
	horizon, _ := simclock.Horizon(s.Hours) // Validate has bounded Hours
	cfg := sim.Config{
		Name:                  name,
		Policy:                policy,
		Workload:              d.Workload,
		SystemAlarms:          s.SystemAlarms,
		OneShots:              d.OneShots,
		Duration:              horizon,
		Beta:                  s.Beta,
		Seed:                  d.Seed,
		PushesPerHour:         d.PushesPerHour,
		ScreenSessionsPerHour: d.ScreensPerHour,
		TaskJitter:            d.TaskJitter,
		ZeroWakeLatency:       s.ZeroWakeLatency,
		Backend:               s.Backend,
		AlignedPhases:         s.AlignedPhases,
	}
	if s.Diurnal {
		cfg.Diurnal = defaultDay
	}
	if d.BatteryScale != 1 {
		in.profile = *nexus5
		in.profile.BatteryMJ *= d.BatteryScale
		cfg.Profile = &in.profile
	}
	if d.LeakApp != "" {
		in.leak[0] = fault.Leak{App: d.LeakApp, Mode: fault.LeakLate}
		in.plan = fault.Plan{Leaks: in.leak[:]}
		cfg.Faults = &in.plan
	}
	return cfg
}

// deviceName is fmt.Sprintf("dev%06d", i) in one allocation, the
// string, with no boxed index.
func deviceName(i int) string {
	var name [24]byte
	return string(appendDeviceName(name[:0], i))
}

// appendDeviceName appends fmt.Sprintf("dev%06d", i) to b.
func appendDeviceName(b []byte, i int) []byte {
	var digits [20]byte
	b, u := append(b, "dev"...), uint64(i)
	signed := 0
	if i < 0 {
		b, u, signed = append(b, '-'), -u, 1
	}
	d := strconv.AppendUint(digits[:0], u, 10)
	// %06d pads the sign and the digits to six with zeros.
	for w := signed + len(d); w < 6; w++ {
		b = append(b, '0')
	}
	return append(b, d...)
}

// nameBlock is how many devices' names one of names' strings holds.
const nameBlock = 1024

// names hands out the names of devices with ascending indices ≥ 0,
// sliced from one string per block of up to nameBlock devices whose
// names are equally long. It keeps only the block in use, so a block
// lives on only while a config points into it.
type names struct {
	first, last, size int // the block names devices [first, last), size bytes each
	block             string
}

// name is deviceName(i), from the block holding i or from a new one
// that names the devices from i on, short of end.
func (n *names) name(i, end int) string {
	if i < n.first || i >= n.last {
		n.fill(i, end)
	}
	k := (i - n.first) * n.size
	return n.block[k : k+n.size]
}

// fill makes the block that names devices i, i+1, … short of end, of
// i+nameBlock and of the first index whose name is longer than i's.
func (n *names) fill(i, end int) {
	var name [24]byte
	n.first, n.last, n.size = i, min(end, i+nameBlock), len(appendDeviceName(name[:0], i))
	var b strings.Builder
	b.Grow(n.size * (n.last - i))
	for j := i; j < n.last; j++ {
		next := appendDeviceName(name[:0], j)
		if len(next) != n.size {
			n.last = j
			break
		}
		b.Write(next)
	}
	n.block = b.String()
}
