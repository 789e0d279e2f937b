package fleet

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/sim"
)

// Options tune a fleet run. The zero value uses GOMAXPROCS workers.
type Options struct {
	// Workers bounds the run pool; ≤ 0 means GOMAXPROCS. The aggregate
	// is byte-identical for any value.
	Workers int
	// Progress, when non-nil, is called after each device's pair of
	// runs is folded, with the number of devices done so far and the
	// fleet size. Calls arrive in device order from a single goroutine.
	Progress func(done, total int)
	// RunProgress, when non-nil, receives every underlying simulation
	// run's completion (two runs per device) as it finishes, before the
	// device is folded, so a slow fleet is observable run by run. Index
	// is the run's position in the 2×Devices run sequence, Done counts
	// runs finished so far and Total is 2×Devices. Calls are serialized
	// (the sim.RunAll contract) but, unlike Progress, arrive in
	// completion order, not device order.
	RunProgress func(sim.Progress)
	// Snapshot, when non-nil, is called with a live copy of the running
	// aggregate after every SnapshotEvery folded devices and always after
	// the final device. Like Progress it is called in device order from a
	// single goroutine, so snapshots are deterministic for a fixed Spec.
	Snapshot func(done, total int, s Summary)
	// SnapshotEvery is the fold interval between Snapshot calls; ≤ 0
	// means DefaultSnapshotEvery.
	SnapshotEvery int
}

// DefaultSnapshotEvery is how many device folds separate consecutive
// Options.Snapshot calls when SnapshotEvery is unset.
const DefaultSnapshotEvery = 64

// Result is a finished fleet run.
type Result struct {
	// Spec is the population description the fleet was sampled from
	// (defaults applied).
	Spec Spec
	// Agg holds the streaming aggregates; Agg.Summary() is the
	// deterministic JSON form.
	Agg *Aggregate
	// Wall is the real time the whole fleet took. It is reported
	// separately from the Summary precisely because it is the one
	// quantity that may differ between byte-identical runs.
	Wall time.Duration
}

// Run samples spec.Devices device configurations, executes each under
// the base and test policies as one sim.Stream over the fleet's
// 2×Devices runs, and folds every device's pair into online aggregates
// in device order. Memory is bounded by the pool's 128-run window, not
// the fleet size: no Records, traces, or Results are retained past the
// fold of their device.
//
// Determinism: device sampling is a pure function of (Spec, index) and
// the aggregate's accumulators merge exactly, so Run's Summary is
// byte-identical across worker counts for a fixed Spec; devices fold in
// order, for Progress and Snapshot. Cancelling ctx aborts the fleet with
// ctx's error.
//
// Error contract: a failure mid-fleet (a poisoned run, ctx
// cancellation) returns the partial *Result alongside the wrapped error
// — the aggregate holds every device folded before the failure
// (Result.Agg.Devices() of them) and is byte-identical to a clean run
// of the same spec truncated to that many devices. Only a spec that
// fails validation returns a nil Result.
func Run(ctx context.Context, spec Spec, opts Options) (*Result, error) {
	spec = spec.WithDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	snapEvery := opts.SnapshotEvery
	if snapEvery <= 0 {
		snapEvery = DefaultSnapshotEvery
	}

	start := time.Now()
	agg := NewAggregate(spec)
	err := runDevices(ctx, spec, 0, spec.Devices, opts.Workers, opts.RunProgress, func(base, test *sim.Result) {
		agg.observe(base, test)
		n := agg.Devices()
		if opts.Progress != nil {
			opts.Progress(n, spec.Devices)
		}
		if opts.Snapshot != nil && (n%snapEvery == 0 || n == spec.Devices) {
			opts.Snapshot(n, spec.Devices, agg.Summary())
		}
	})
	res := &Result{Spec: spec, Agg: agg, Wall: time.Since(start)}
	if err != nil {
		n := agg.Devices()
		// Distinguish the caller abandoning the fleet from a run
		// failing: a cancelled (or deadline-expired) context is not a
		// device error, and callers classify it with errors.Is, so
		// surface it as the fleet being cancelled rather than blaming
		// the device that happened to be in flight.
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return res, fmt.Errorf("fleet: cancelled after %d devices: %w", n, err)
		}
		return res, fmt.Errorf("fleet: failed after %d devices: %w", n, err)
	}
	return res, nil
}

// runDevices runs the devices [lo, hi) as one sim.Stream of 2×(hi-lo)
// runs — each device's base then test config, NoTrace — and hands every
// pair to fold in device order. The stream samples each device and
// builds its base config once, when its base run is prepared; the test
// config is the base config under the test policy, the one difference
// Spec.Config makes between them. Each Result is dropped once folded.
// runProgress, when non-nil, sees every run in the range's coordinates.
//
// On error, fold has seen a prefix of the devices.
func runDevices(ctx context.Context, spec Spec, lo, hi, workers int, runProgress func(sim.Progress), fold func(base, test *sim.Result)) error {
	var c sim.Config // prepared in order on one goroutine
	cfg := func(i int) sim.Config {
		if i%2 == 0 {
			c = spec.Config(spec.SampleDevice(lo+i/2), spec.BasePolicy)
			c.NoTrace = true
			return c
		}
		test := c
		test.Policy = spec.TestPolicy
		return test
	}
	var base *sim.Result // delivered in order on this goroutine
	return sim.Stream(ctx, 2*(hi-lo), cfg, sim.RunAllOptions{Workers: workers, Progress: runProgress}, func(i int, r *sim.Result) error {
		if i%2 == 0 {
			base = r
		} else {
			fold(base, r)
		}
		return nil
	})
}
