package sim

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/apps"
)

// heavyDrain is the heavy workload run to empty: ~89 h of discharge,
// 30 times the standby horizon its buffers are sized for.
func heavyDrain() Config {
	return Config{Policy: "SIMTY", Workload: apps.HeavyWorkload(), SystemAlarms: true, OneShots: 6, Seed: 1}
}

// drainBytes returns what one RunToEmpty of cfg allocates, with the
// environment warmed by a drain first.
func drainBytes(t *testing.T, cfg Config) (*DrainResult, uint64) {
	t.Helper()
	if _, err := RunToEmpty(cfg); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d, err := RunToEmpty(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	return d, after.TotalAlloc - before.TotalAlloc
}

// TestRunToEmptyKeepsNoRecords: a drain returns no records, so it keeps
// none, and it sizes its buffers from the standby horizon, not from the
// 1,000 h drain cap. What it measures does not depend on the trace mode.
func TestRunToEmptyKeepsNoRecords(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-day simulation")
	}
	var drains []*DrainResult
	for _, mode := range []struct {
		name     string
		noTrace  bool
		collect  bool
		maxBytes uint64
	}{
		{"NoTrace", true, false, 1 << 20},
		{"default", false, false, 1 << 20},
		{"CollectTrace", false, true, 100 << 20},
	} {
		cfg := heavyDrain()
		cfg.NoTrace, cfg.CollectTrace = mode.noTrace, mode.collect
		d, bytes := drainBytes(t, cfg)
		t.Logf("%s: %.1f h to empty, %d wakeups, %.1f MB allocated", mode.name, d.StandbyHours, d.Wakeups, float64(bytes)/(1<<20))
		switch {
		case mode.collect && d.Trace == nil:
			t.Errorf("%s: no trace", mode.name)
		case bytes > mode.maxBytes:
			t.Errorf("%s: drain allocated %.1f MB, ceiling %.0f MB", mode.name, float64(bytes)/(1<<20), float64(mode.maxBytes)/(1<<20))
		}
		d.Trace = nil
		drains = append(drains, d)
	}
	for _, d := range drains[1:] {
		if !reflect.DeepEqual(d, drains[0]) {
			t.Errorf("drain differs across trace modes: %+v vs %+v", d, drains[0])
		}
	}
}
