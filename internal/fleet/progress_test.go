package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/alarm"
	"repro/internal/apps"
	"repro/internal/sim"
	"repro/internal/simclock"
)

// TestRunPartialAggregateOnFailure pins the error contract a service
// cannot live without: a failure mid-fleet returns the partial Result —
// every shard folded before the failure — alongside the wrapped error,
// and the partial aggregate is byte-identical to a clean run truncated
// to the same device count (sampling is a pure function of (Spec, i),
// so the first k devices of a fleet are the same devices regardless of
// the fleet size).
func TestRunPartialAggregateOnFailure(t *testing.T) {
	spec := Spec{Devices: 12, Seed: 7, Hours: 0.25, Apps: IntRange{Min: 1, Max: 2}}
	const shard = 4

	// Poison the fleet after the first shard folds: cancelling from the
	// fold-loop Progress callback is synchronous, so the run pool
	// delivers nothing more and the later devices contribute nothing.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r, err := Run(ctx, spec, Options{Progress: func(done, total int) {
		if done == shard {
			cancel()
		}
	}})
	if err == nil {
		t.Fatal("poisoned fleet returned nil error")
	}
	if !strings.Contains(err.Error(), context.Canceled.Error()) {
		t.Fatalf("error %q does not carry the cause", err)
	}
	if r == nil {
		t.Fatal("poisoned fleet returned nil Result: the partial aggregate was lost")
	}
	if got := r.Agg.Devices(); got != shard {
		t.Fatalf("partial aggregate holds %d devices, want %d", got, shard)
	}

	// The partial aggregate must equal a clean fleet of exactly the
	// folded devices, byte for byte.
	truncated := spec
	truncated.Devices = shard
	want, err := Run(context.Background(), truncated, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err1 := json.Marshal(r.Agg.Summary())
	wantJSON, err2 := json.Marshal(want.Agg.Summary())
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if string(got) != string(wantJSON) {
		t.Fatalf("partial aggregate diverges from the truncated fleet:\ngot  %s\nwant %s", got, wantJSON)
	}
}

// panicPolicy stands in for a buggy registered policy: its first Select
// panics inside a fleet run.
type panicPolicy struct{}

func (panicPolicy) Name() string { return "FLEET-PANIC" }
func (panicPolicy) Select([]*alarm.Entry, *alarm.Alarm, simclock.Time) int {
	panic("poisoned policy")
}

func init() {
	alarm.MustRegister("FLEET-PANIC", func(alarm.PolicyContext) (alarm.Policy, error) { return panicPolicy{}, nil })
	// FLEET-SEEDED hands out the registry's own policies by seed:
	// SIMTY-hw2 on odd seeds, SIMTY on even ones.
	alarm.MustRegister("FLEET-SEEDED", func(ctx alarm.PolicyContext) (alarm.Policy, error) {
		if ctx.Seed%2 != 0 {
			return alarm.PolicyByName("SIMTY-hw2", ctx)
		}
		return alarm.PolicyByName("SIMTY", ctx)
	})
}

// TestPluginFactoryRunsForEachRun: a run environment keeps only a
// registry policy named for its own registration, so a plug-in whose
// factory hands out another registration's policy is built for every
// run. Consecutive runs on one goroutine share an environment; had it
// kept the SIMTY-hw2 built for seed 1, seed 2 would run it again.
func TestPluginFactoryRunsForEachRun(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		r, err := sim.Run(sim.Config{Policy: "FLEET-SEEDED", Workload: apps.LightWorkload(), Seed: seed,
			Duration: simclock.Hour, NoTrace: true})
		if err != nil {
			t.Fatal(err)
		}
		want := "SIMTY"
		if seed%2 != 0 {
			want = "SIMTY-hw2"
		}
		if r.PolicyName != want {
			t.Errorf("seed %d ran %s, its factory builds %s", seed, r.PolicyName, want)
		}
	}
}

// TestRunPanickingPolicyIsAnError: a policy that panics mid-fleet comes
// back from Run as an error unwrapping to *sim.PanicError with its
// stack, alongside the (empty) partial aggregate — the process survives.
func TestRunPanickingPolicyIsAnError(t *testing.T) {
	spec := Spec{Devices: 8, Seed: 3, Hours: 0.25, Apps: IntRange{Min: 1, Max: 2}, TestPolicy: "FLEET-PANIC"}
	r, err := Run(context.Background(), spec, Options{Workers: 2})
	var pe *sim.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a *sim.PanicError", err)
	}
	if len(pe.Stack) == 0 {
		t.Error("panic carries no stack")
	}
	if r == nil || r.Agg.Devices() != 0 {
		t.Fatalf("want the empty partial aggregate, got %+v", r)
	}
}

// TestRunProgressThreading checks the per-run progress path: every
// underlying simulation run (two per device) reaches the callback with
// fleet-global coordinates, and wiring the callback leaves the
// aggregate byte-identical (the fold order is pinned elsewhere; this
// guards the plumbing).
func TestRunProgressThreading(t *testing.T) {
	spec := Spec{Devices: 10, Seed: 3, Hours: 0.25, Apps: IntRange{Min: 1, Max: 2}}

	var runs, lastDone int
	opts := Options{
		Workers: 2,
		RunProgress: func(p sim.Progress) {
			runs++
			if p.Total != 2*spec.Devices {
				t.Fatalf("run progress total = %d, want %d", p.Total, 2*spec.Devices)
			}
			if p.Done <= lastDone {
				t.Fatalf("run progress done = %d after %d, want strictly increasing", p.Done, lastDone)
			}
			if p.Index < 0 || p.Index >= 2*spec.Devices {
				t.Fatalf("run progress index %d outside [0, %d)", p.Index, 2*spec.Devices)
			}
			if p.Name == "" {
				t.Fatal("run progress with empty name")
			}
			lastDone = p.Done
		},
	}
	r, err := Run(context.Background(), spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if runs != 2*spec.Devices {
		t.Fatalf("saw %d run completions, want %d", runs, 2*spec.Devices)
	}
	if lastDone != 2*spec.Devices {
		t.Fatalf("final done = %d, want %d", lastDone, 2*spec.Devices)
	}

	plain, err := Run(context.Background(), spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(r.Agg.Summary())
	want, _ := json.Marshal(plain.Agg.Summary())
	if string(got) != string(want) {
		t.Fatalf("RunProgress changed the aggregate:\ngot  %s\nwant %s", got, want)
	}
}

// TestRunSnapshots checks the live-aggregate path: snapshots arrive in
// fold order at the configured cadence plus a final one, each reports
// the devices folded so far, and the last snapshot equals the finished
// aggregate byte for byte — the invariant the SSE layer's "final
// snapshot matches the stored result" guarantee rests on.
func TestRunSnapshots(t *testing.T) {
	spec := Spec{Devices: 8, Seed: 11, Hours: 0.25, Apps: IntRange{Min: 1, Max: 2}}

	type snap struct {
		done int
		sum  Summary
	}
	var snaps []snap
	r, err := Run(context.Background(), spec, Options{
		SnapshotEvery: 3,
		Snapshot: func(done, total int, s Summary) {
			if total != spec.Devices {
				t.Fatalf("snapshot total = %d, want %d", total, spec.Devices)
			}
			if s.Devices != done {
				t.Fatalf("snapshot at done=%d reports %d devices", done, s.Devices)
			}
			snaps = append(snaps, snap{done, s})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	wantAt := []int{3, 6, 8}
	if len(snaps) != len(wantAt) {
		t.Fatalf("got %d snapshots, want %d", len(snaps), len(wantAt))
	}
	for i, s := range snaps {
		if s.done != wantAt[i] {
			t.Fatalf("snapshot %d at done=%d, want %d", i, s.done, wantAt[i])
		}
	}
	got, _ := json.Marshal(snaps[len(snaps)-1].sum)
	want, _ := json.Marshal(r.Agg.Summary())
	if string(got) != string(want) {
		t.Fatalf("final snapshot diverges from the finished aggregate:\ngot  %s\nwant %s", got, want)
	}
}

// TestRunProgressConcurrentFleets hammers two fleets with progress
// callbacks in parallel — the shard-local closure capture must not leak
// across Run calls (run under -race by make verify).
func TestRunProgressConcurrentFleets(t *testing.T) {
	var total atomic.Int64
	done := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func(seed int64) {
			spec := Spec{Devices: 6, Seed: seed, Hours: 0.25, Apps: IntRange{Min: 1, Max: 2}}
			_, err := Run(context.Background(), spec, Options{
				RunProgress: func(p sim.Progress) { total.Add(1) },
			})
			done <- err
		}(int64(i + 1))
	}
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if got := total.Load(); got != 24 {
		t.Fatalf("saw %d run completions across both fleets, want 24", got)
	}
}
