package fleet

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/sim"
)

// Options tune a fleet run. The zero value uses GOMAXPROCS workers and
// the default shard size.
type Options struct {
	// Workers bounds the sim.RunAll pool; ≤ 0 means GOMAXPROCS. The
	// aggregate is byte-identical for any value.
	Workers int
	// ShardSize is how many devices are in flight per RunAll batch;
	// ≤ 0 means DefaultShardSize. It bounds peak memory: per-run
	// Results live only until their shard is folded into the aggregate.
	ShardSize int
	// Progress, when non-nil, is called after each device's pair of
	// runs is folded, with the number of devices done so far and the
	// fleet size. Calls arrive in device order from a single goroutine.
	Progress func(done, total int)
	// RunProgress, when non-nil, receives every underlying simulation
	// run's completion (two runs per device) as it finishes, before the
	// device is folded — a slow shard is observable run by run instead of
	// going dark until its first fold. Indices are fleet-global: Index is
	// the run's position in the 2×Devices run sequence, Done counts runs
	// finished across the whole fleet, Total is 2×Devices. Calls are
	// serialized (the sim.RunAll contract) but, unlike Progress, arrive
	// in completion order, not device order.
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

// DefaultShardSize bounds in-flight devices per batch. At two runs per
// device and ~1–2k delivery records per 3 h run, a shard peaks in the
// tens of megabytes regardless of fleet size.
const DefaultShardSize = 64

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
// the base and test policies on the sim.RunAll worker pool, and streams
// the results into online aggregates. Memory is bounded by the shard
// size, not the fleet size: no Records, traces, or Results are retained
// past the shard that produced them.
//
// Determinism: device sampling is a pure function of (Spec, index) and
// the aggregate's accumulators merge exactly, so Run's Summary is
// byte-identical across worker counts and shard sizes for a fixed Spec;
// devices still fold in order, for Progress and Snapshot. Cancelling ctx
// aborts the fleet with ctx's error.
//
// Error contract: a failure mid-fleet (a poisoned shard, ctx
// cancellation) returns the partial *Result alongside the wrapped error
// — the aggregate holds every device folded before the failure
// (Result.Agg.Devices() of them) and is byte-identical to a clean run
// of the same spec truncated to that many devices. The failed shard
// contributes nothing. Only a spec that fails validation returns a nil
// Result.
func Run(ctx context.Context, spec Spec, opts Options) (*Result, error) {
	spec = spec.WithDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	shard := opts.ShardSize
	if shard <= 0 {
		shard = DefaultShardSize
	}
	snapEvery := opts.SnapshotEvery
	if snapEvery <= 0 {
		snapEvery = DefaultSnapshotEvery
	}

	start := time.Now()
	agg := NewAggregate(spec)
	err := runDevices(ctx, spec, 0, spec.Devices, shard, opts.Workers, opts.RunProgress, func(d Device, base, test *sim.Result) {
		agg.observe(d, base, test)
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
		// Distinguish the caller abandoning the fleet from a shard
		// failing: a cancelled (or deadline-expired) context is not a
		// device-range error, and callers classify it with errors.Is,
		// so surface it as the fleet being cancelled rather than
		// blaming the shard that happened to be in flight.
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return res, fmt.Errorf("fleet: cancelled after %d devices: %w", n, err)
		}
		return res, fmt.Errorf("fleet: devices %d–%d (aggregate holds %d): %w", n, min(n+shard, spec.Devices)-1, n, err)
	}
	return res, nil
}

// runDevices is the one batch loop under Run and RunShard. It samples
// the devices [lo, hi) in batches of batch, runs each device's base and
// test configs NoTrace on the sim.RunAll pool, and hands every pair to
// fold in device order, dropping the Results as it goes — the batch is
// the only reference keeping a run alive, so memory is bounded by the
// batch, not the range. runProgress, when non-nil, sees every run with
// Index/Done/Total lifted to the 2×(hi-lo) runs of the whole range.
//
// On error, fold has seen exactly the devices before the failed batch.
func runDevices(ctx context.Context, spec Spec, lo, hi, batch, workers int, runProgress func(sim.Progress), fold func(d Device, base, test *sim.Result)) error {
	runOpts := sim.RunAllOptions{Workers: workers}
	devices := make([]Device, 0, batch)
	cfgs := make([]sim.Config, 0, 2*batch)
	for batchLo := lo; batchLo < hi; batchLo += batch {
		batchHi := min(batchLo+batch, hi)
		devices, cfgs = devices[:0], cfgs[:0]
		for i := batchLo; i < batchHi; i++ {
			d := spec.SampleDevice(i)
			devices = append(devices, d)
			base, test := spec.Config(d, spec.BasePolicy), spec.Config(d, spec.TestPolicy)
			base.NoTrace = true
			test.NoTrace = true
			cfgs = append(cfgs, base, test)
		}
		if runProgress != nil {
			// Batches run one RunAll at a time, so lifting the per-batch
			// progress to range-global coordinates is a fixed offset.
			offset := 2 * (batchLo - lo)
			runOpts.Progress = func(p sim.Progress) {
				p.Index += offset
				p.Done += offset
				p.Total = 2 * (hi - lo)
				runProgress(p)
			}
		}
		rs, err := sim.RunAll(ctx, cfgs, runOpts)
		if err != nil {
			return err
		}
		for k, d := range devices {
			fold(d, rs[2*k], rs[2*k+1])
			rs[2*k], rs[2*k+1] = nil, nil
		}
	}
	return nil
}
