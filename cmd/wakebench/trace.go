package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/alarm"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/simclock"
)

// This file holds the traced pass: spans and counts recorded around the
// calls into each layer's public API, from outside the program.

// layerCounters accumulates what the alarm and core layers did across
// instrumented device-runs.
type layerCounters struct {
	runs        int
	selects     int
	selectTime  time.Duration
	queueLen    int
	joins       int
	columnCalls int
}

// timedPolicy times and counts every Select of the policy it wraps.
type timedPolicy struct {
	inner alarm.Policy
	c     *layerCounters
}

func (p *timedPolicy) Name() string { return p.inner.Name() }

func (p *timedPolicy) Select(entries []*alarm.Entry, a *alarm.Alarm, now simclock.Time) int {
	start := time.Now()
	i := p.inner.Select(entries, a, now)
	p.c.selectTime += time.Since(start)
	p.c.selects++
	p.c.queueLen += len(entries)
	if i >= 0 {
		p.c.joins++
	}
	return i
}

// offsetPolicy keeps an inner alarm.Offsetter (SIMTY-J) visible through
// the timing wrapper, which the queue looks for by type assertion.
type offsetPolicy struct {
	*timedPolicy
	alarm.Offsetter
}

// countingHW counts the SIMTY family's hardware-column classifications.
type countingHW struct {
	core.HardwareClassifier
	c *layerCounters
}

func (h countingHW) Column(a, b hw.Set) int {
	h.c.columnCalls++
	return h.HardwareClassifier.Column(a, b)
}

// simtyOf finds the SIMTY selector inside a registry-built policy, or nil
// for policies outside the SIMTY family.
func simtyOf(p alarm.Policy) *core.Simty {
	switch p := p.(type) {
	case *core.Simty:
		return p
	case *core.DurationSimty:
		return &p.Simty
	case *core.UserAware:
		return p.Inner
	case *core.AoIAware:
		return p.Inner
	case alarm.Jitter:
		return simtyOf(p.Inner)
	}
	return nil
}

// instrument returns cfg with its policy built the way sim.Run builds it
// (registry, run seed, diurnal oracle), wrapped by timedPolicy and, in the
// SIMTY family, with a counting hardware classifier. The wrapped run
// simulates exactly what cfg does; replayLayers checks that it does.
func instrument(cfg sim.Config, c *layerCounters) (sim.Config, error) {
	name := cfg.Policy
	if name == "" {
		name = "NATIVE"
	}
	pctx := alarm.PolicyContext{Seed: cfg.Seed}
	if cfg.Diurnal != nil {
		pctx.Activity = cfg.Diurnal
	}
	p, err := alarm.PolicyByName(name, pctx)
	if err != nil {
		return cfg, err
	}
	if s := simtyOf(p); s != nil {
		inner := s.HW
		if inner == nil {
			inner = core.ThreeLevel{}
		}
		s.HW = countingHW{inner, c}
	}
	t := &timedPolicy{inner: p, c: c}
	cfg.Custom = t
	if o, ok := p.(alarm.Offsetter); ok {
		cfg.Custom = offsetPolicy{t, o}
	}
	return cfg, nil
}

// replayLayers runs a sample of the workload's device configurations
// through the public calls of the alarm, core, sim and metrics layers and
// emits their per-layer metrics:
//
//   - each configuration runs instrumented in retained mode, and must
//     simulate exactly what the plain NoTrace run does;
//   - its retained Records are replayed through the six public metric
//     accumulators, which must reproduce the run's streamed statistics;
//   - each configuration runs again with a 1 ms horizon, which leaves
//     little but sim.Run's set-up.
func (b *bench) replayLayers(cfgs []sim.Config) error {
	const recordReps, setupRounds = 5, 5
	var deliveries, wakeups, records int
	var recordTime time.Duration
	for _, cfg := range cfgs {
		ic, err := instrument(cfg, &b.layers)
		if err != nil {
			return err
		}
		ic.NoTrace = false
		r, err := sim.Run(ic)
		if err != nil {
			return err
		}
		b.layers.runs++
		plain := cfg
		plain.NoTrace = true
		p, err := sim.Run(plain)
		if err != nil {
			return err
		}
		b.verify(outcomeOf(r) == outcomeOf(p), "instrumented run of %s differs from the plain run", cfg.Name)
		deliveries += len(r.Records)
		wakeups += r.FinalWakeups
		d, ok := replayRecords(cfg, r, recordReps)
		b.verify(ok, "metric accumulators replayed over %s disagree with its streamed statistics", cfg.Name)
		recordTime += d
		records += recordReps * len(r.Records)
	}

	c := b.layers
	runs := float64(c.runs)
	b.emit("alarm.select_calls", float64(c.selects)/runs, "count", c.runs)
	b.emit("alarm.select_us", float64(c.selectTime)/float64(time.Microsecond)/runs, "us", c.runs)
	b.emit("alarm.queue_len_mean", float64(c.queueLen)/float64(c.selects), "count", c.selects)
	b.emit("alarm.join_ratio", float64(c.joins)/float64(c.selects), "frac", c.selects)
	b.emit("core.hw_column_calls", float64(c.columnCalls)/runs, "count", c.runs)
	b.emit("alarm.deliveries", float64(deliveries)/float64(len(cfgs)), "count", len(cfgs))
	b.emit("device.wakeups", float64(wakeups)/float64(len(cfgs)), "count", len(cfgs))
	b.emit("metrics.ns_per_record", float64(recordTime)/float64(records), "ns", records)

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for round := 0; round < setupRounds; round++ {
		for _, cfg := range cfgs {
			cfg.Duration = simclock.Millisecond
			cfg.NoTrace = true
			if _, err := sim.Run(cfg); err != nil {
				return err
			}
		}
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)
	calls := setupRounds * len(cfgs)
	b.emit("sim.setup_us", float64(wall)/float64(time.Microsecond)/float64(calls), "us", calls)
	b.emit("sim.setup_allocs", float64(m1.Mallocs-m0.Mallocs)/float64(calls), "count", calls)
	return nil
}

// replayRecords feeds a retained run's Records reps times through the
// metric accumulators the simulator streams them through (the two delay
// accumulators and AoI see the workload's own apps only), and reports the
// time taken and whether the accumulated statistics equal the run's.
func replayRecords(cfg sim.Config, r *sim.Result, reps int) (time.Duration, bool) {
	own := make(map[string]bool, len(cfg.Workload))
	for _, s := range cfg.Workload {
		own[s.Name] = true
	}
	ok := true
	start := time.Now()
	for rep := 0; rep < reps; rep++ {
		var delaysApp, delaysAll metrics.DelayAcc
		var guard metrics.GuaranteeAcc
		var gaps metrics.GapAcc
		wake, spk, aoi := metrics.NewWakeupAcc(), metrics.NewSpkVibAcc(), metrics.NewAoIAcc()
		for _, rec := range r.Records {
			if own[rec.App] {
				delaysApp.Add(rec)
				aoi.Add(rec)
			}
			delaysAll.Add(rec)
			wake.Add(rec)
			spk.Add(rec)
			guard.Add(rec)
			gaps.Add(rec)
		}
		ok = ok && delaysApp.Stats() == r.Delays && delaysAll.Stats() == r.DelaysAll &&
			wake.Breakdown() == r.Wakeups && spk.Row() == r.SpkVib &&
			guard.Guarantees() == r.Guarantees && gaps.Stats() == r.WakeGaps &&
			aoi.Stats(simclock.Time(r.Config.Duration)) == r.AoI
	}
	return time.Since(start), ok
}

// profile runs fn under the CPU profiler and emits each package bucket's
// share of the profiled self time (cpu.<bucket>).
func (b *bench) profile(fn func() error) error {
	if err := os.MkdirAll(b.tmpDir, 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(b.tmpDir, "wakebench-*.pprof")
	if err != nil {
		return err
	}
	defer os.Remove(f.Name())
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	runErr := fn()
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return err
	}
	if runErr != nil {
		return runErr
	}
	top, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", f.Name()).Output()
	if err != nil {
		return fmt.Errorf("go tool pprof: %w", err)
	}
	shares, rows, err := bucketTop(top)
	if err != nil {
		return err
	}
	for _, k := range cpuBuckets {
		b.emit("cpu."+k, shares[k], "frac", rows)
	}
	return nil
}

// bucketTop sums the flat% column of `go tool pprof -top` output by
// package bucket (cpuBucket) and normalizes the sums to shares of 1. It
// also returns how many function rows it read; a profile without samples
// yields no rows and all-zero shares.
func bucketTop(top []byte) (map[string]float64, int, error) {
	shares := map[string]float64{}
	var total float64
	rows := 0
	inTable := false
	for _, line := range strings.Split(string(top), "\n") {
		f := strings.Fields(line)
		if !inTable {
			inTable = len(f) >= 5 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			return nil, 0, fmt.Errorf("pprof -top row %q: %w", line, err)
		}
		shares[cpuBucket(strings.Join(f[5:], " "))] += pct
		total += pct
		rows++
	}
	if total > 0 {
		for k := range shares {
			shares[k] /= total
		}
	}
	return shares, rows, nil
}

// cpuBucket maps a profiled function name to its package bucket: the
// simulator layer under repro/internal, "runtime" for the Go runtime, and
// "other" for the rest (other repository packages, the standard library,
// this benchmark).
func cpuBucket(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic type arguments hold package paths too
	}
	slash := strings.LastIndexByte(fn, '/')
	pkg := fn
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	if layer, ok := strings.CutPrefix(pkg, "repro/internal/"); ok && slices.Contains(cpuBuckets, layer) {
		return layer
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}
