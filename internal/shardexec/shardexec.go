package shardexec

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"sync"
	"time"

	"repro/internal/fleet"
	"repro/internal/pool"
	"repro/internal/sim"
)

// Supervisor constants. Simulation shards are deterministic, so a
// failed attempt is a crashed, killed, or hung worker, never a flaky
// result: a few attempts separate a transient fault from a poison shard.
const (
	// DefaultShardSize is the device range per worker process. A
	// process carries fork/exec and serialization overhead, so shards
	// are coarse; each worker streams its range through its own run
	// pool.
	DefaultShardSize = 2048
	// maxAttempts is how many times a shard runs before it is
	// quarantined.
	maxAttempts = 3
	// retryBackoff is the pause before the first retry; it doubles per
	// retry up to maxRetryBackoff.
	retryBackoff    = 250 * time.Millisecond
	maxRetryBackoff = 5 * time.Second
)

// Options tune a fleet run. Workers, Progress, Snapshot and
// SnapshotEvery apply in either execution shape, and RunProgress only in
// process; every other field configures the worker processes and is
// ignored without them.
type Options struct {
	// Procs bounds concurrently running worker processes (never more
	// than the shard count); ≤ 0 runs the fleet in this process with
	// fleet.Run.
	Procs int
	// ShardSize is the device range per worker process; ≤ 0 means
	// DefaultShardSize. A resumed run must use the checkpoint's value.
	ShardSize int
	// Workers bounds the sim pool, each worker process's or this
	// process's; ≤ 0 means that process's GOMAXPROCS.
	Workers int
	// WorkerTimeout is the per-attempt deadline; a worker still running
	// when it expires is killed and the attempt counts as failed. ≤ 0
	// means no deadline.
	WorkerTimeout time.Duration
	// Checkpoint, when non-empty, is the path of the append-only
	// checkpoint log. An interrupted run restarted with Resume re-runs
	// only the shards the log is missing. Only worker processes write
	// one: Run refuses a Checkpoint when Procs ≤ 0.
	Checkpoint string
	// Resume loads an existing checkpoint at Checkpoint instead of
	// truncating it. The log's spec hash, device count, and shard size
	// must match. A missing or empty file starts fresh.
	Resume bool
	// WorkerArgv is the child command line; empty means the current
	// executable with the single argument "-shardworker", the worker
	// mode wakesim, report and wakesimd each accept. Tests point this at
	// a re-executed test binary.
	WorkerArgv []string
	// WorkerEnv entries are appended to the parent environment for each
	// worker.
	WorkerEnv []string
	// Progress, when non-nil, is called after each shard merge (in
	// process: each device fold) with devices merged so far and the
	// fleet size. Calls arrive in device order from one goroutine.
	Progress func(done, total int)
	// RunProgress, when non-nil, receives each simulation run's
	// completion, as fleet.Options.RunProgress describes. Only an
	// in-process run reports runs: worker processes do not stream them
	// back.
	RunProgress func(sim.Progress)
	// Snapshot, when non-nil, receives a Summary of the merged prefix
	// after each merge that crosses a multiple of SnapshotEvery devices,
	// and always after the final merge.
	Snapshot func(done, total int, s fleet.Summary)
	// SnapshotEvery is in devices, like fleet.Options.SnapshotEvery;
	// ≤ 0 means fleet.DefaultSnapshotEvery.
	SnapshotEvery int
	// OnShard, when non-nil, observes the per-shard lifecycle (start,
	// ok, retry, quarantine, cached). Calls may arrive from worker
	// goroutines; they are serialized by an internal lock.
	OnShard func(ev ShardEvent)
}

// ShardEvent is one observable transition in a shard's lifecycle.
type ShardEvent struct {
	Index, Lo, Hi int
	// Attempt is the attempt the event refers to (0 for "cached").
	Attempt int
	// State is one of "start", "ok", "retry", "quarantine", "cached".
	State string
	// Err carries the failure text for "retry" and "quarantine".
	Err string
}

// Result is a finished (or partially finished) fleet run. An
// in-process run leaves every shard counter at zero.
type Result struct {
	Spec fleet.Spec
	// Agg holds the merged aggregate: the whole fleet on success, the
	// device prefix merged before a quarantine or cancellation.
	Agg *fleet.Aggregate
	// Shards is the plan size; Completed counts shards merged into Agg.
	Shards, Completed int
	// Resumed counts shards recovered from the checkpoint instead of
	// re-run.
	Resumed int
	// Attempts counts worker processes launched; Retries counts the
	// attempts beyond each shard's first. A crash-free run has
	// Attempts == Shards - Resumed and Retries == 0.
	Attempts, Retries int
	// Quarantined lists shard indices that exhausted their attempts.
	Quarantined []int
	Wall        time.Duration
}

// Run executes the spec's fleet across worker processes — one pool.Run
// over all shards, at most Procs worker processes at once — and merges
// the shard states in device order as each one and every shard before
// it are done. The merge is exact, so the Summary of
// the returned aggregate is byte-identical to a single-process
// fleet.Run of the same spec — regardless of Procs, ShardSize, worker
// crashes, retries, or a checkpoint resume in the middle. With
// Procs ≤ 0 Run is fleet.Run: it returns fleet.Run's result and error
// untouched, with every shard counter at zero.
//
// Error contract (mirroring fleet.Run): a quarantined shard or a
// cancelled context returns the partial *Result alongside the error —
// the aggregate holds the shards merged before the failure stopped the
// pool, a device prefix, and the error joins every quarantined shard's
// attempt errors. Cancellation is classified: errors.Is(err,
// context.Canceled) (or DeadlineExceeded) identifies a caller abort
// rather than a shard failure. Only a spec or options failure returns a
// nil Result.
func Run(ctx context.Context, spec fleet.Spec, opts Options) (*Result, error) {
	if opts.Procs <= 0 {
		return runInProcess(ctx, spec, opts)
	}
	start := time.Now()
	spec = spec.WithDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	shardSize := opts.ShardSize
	if shardSize <= 0 {
		shardSize = DefaultShardSize
	}
	snapEvery := opts.SnapshotEvery
	if snapEvery <= 0 {
		snapEvery = fleet.DefaultSnapshotEvery
	}
	argv := opts.WorkerArgv
	if len(argv) == 0 {
		exe, err := os.Executable()
		if err != nil {
			return nil, fmt.Errorf("shardexec: locate worker executable: %w", err)
		}
		argv = []string{exe, "-shardworker"}
	}

	shards := (spec.Devices + shardSize - 1) / shardSize

	// mu serializes OnShard calls and guards the attempt counters, the
	// quarantine list and the checkpoint.
	var mu sync.Mutex
	emit := func(ev ShardEvent) {
		if opts.OnShard != nil {
			mu.Lock()
			opts.OnShard(ev)
			mu.Unlock()
		}
	}
	rangeOf := func(i int) (lo, hi int) { return i * shardSize, min((i+1)*shardSize, spec.Devices) }

	res := &Result{Spec: spec, Shards: shards, Agg: fleet.NewAggregate(spec)}
	var ck *checkpoint
	var cached map[int]*fleet.ShardAggregate
	if opts.Checkpoint != "" {
		var st *checkpointState
		var err error
		ck, st, err = openOrCreate(opts.Checkpoint, spec, shardSize, opts.Resume)
		if err != nil {
			return nil, err
		}
		defer ck.Close()
		if st != nil {
			cached = st.shards
		}
	}
	// Each shard recovered from the checkpoint is reported once, in
	// index order, before any worker starts.
	for i := 0; i < shards; i++ {
		if cached[i] != nil {
			lo, hi := rangeOf(i)
			res.Resumed++
			emit(ShardEvent{Index: i, Lo: lo, Hi: hi, State: "cached"})
		}
	}

	// run yields a shard's state: recovered from the checkpoint, or
	// computed by worker processes and appended to it.
	run := func(i int, sa *fleet.ShardAggregate) (*fleet.ShardAggregate, error) {
		if sa != nil {
			return sa, nil
		}
		lo, hi := rangeOf(i)
		frame, sa, attempts, err := runShardProcess(ctx, NewManifest(spec, i, lo, hi, opts.Workers), argv, opts.WorkerEnv, opts.WorkerTimeout, emit)
		mu.Lock()
		defer mu.Unlock()
		res.Attempts += attempts
		res.Retries += attempts - 1
		switch {
		case err == nil && ck != nil:
			err = ck.appendShard(frame)
		case err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded):
			res.Quarantined = append(res.Quarantined, i)
			err = fmt.Errorf("shard %d: %w", i, err)
		}
		return sa, err
	}
	// deliver merges the shards in device order, so the aggregate is
	// always a device prefix, and reports each merge.
	deliver := func(i int, sa *fleet.ShardAggregate) error {
		before := res.Agg.Devices()
		if err := res.Agg.MergeShard(sa); err != nil {
			return err
		}
		res.Completed++
		done := res.Agg.Devices()
		if opts.Progress != nil {
			opts.Progress(done, spec.Devices)
		}
		if opts.Snapshot != nil && (done/snapEvery > before/snapEvery || i == shards-1) {
			opts.Snapshot(done, spec.Devices, res.Agg.Summary())
		}
		return nil
	}
	err := pool.Run(ctx, shards, opts.Procs, func(i int) *fleet.ShardAggregate { return cached[i] }, run, deliver)
	res.Wall = time.Since(start)

	sort.Ints(res.Quarantined)
	switch {
	case err == nil:
		return res, nil
	case len(res.Quarantined) > 0:
		return res, fmt.Errorf("shardexec: %d of %d shards quarantined (aggregate holds %d devices): %w",
			len(res.Quarantined), shards, res.Agg.Devices(), err)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return res, fmt.Errorf("shardexec: cancelled after %d devices: %w", res.Agg.Devices(), err)
	default:
		// A merge or checkpoint failure is a supervisor bug, a
		// poisoned checkpoint or a full disk.
		return res, fmt.Errorf("shardexec: merge failed after %d devices: %w", res.Agg.Devices(), err)
	}
}

// runInProcess is Run without worker processes: fleet.Run on this
// process's sim pool.
func runInProcess(ctx context.Context, spec fleet.Spec, opts Options) (*Result, error) {
	if opts.Checkpoint != "" {
		return nil, errors.New("shardexec: a checkpoint needs worker processes (Procs > 0)")
	}
	r, err := fleet.Run(ctx, spec, fleet.Options{
		Workers:       opts.Workers,
		Progress:      opts.Progress,
		RunProgress:   opts.RunProgress,
		Snapshot:      opts.Snapshot,
		SnapshotEvery: opts.SnapshotEvery,
	})
	if r == nil {
		return nil, err
	}
	return &Result{Spec: r.Spec, Agg: r.Agg, Wall: r.Wall}, err
}

// openOrCreate resolves the checkpoint file: load-and-validate when
// resuming onto an existing log, fresh log otherwise.
func openOrCreate(path string, spec fleet.Spec, shardSize int, resume bool) (*checkpoint, *checkpointState, error) {
	if resume {
		if info, err := os.Stat(path); err == nil && info.Size() > 0 {
			ck, st, err := loadCheckpoint(path)
			if err != nil {
				return nil, nil, err
			}
			hash := fleet.SpecHash(spec)
			if st.header.SpecHash != hex.EncodeToString(hash[:]) {
				ck.Close()
				return nil, nil, fmt.Errorf("shardexec: checkpoint %s was written for a different spec", path)
			}
			if st.header.ShardSize != shardSize {
				ck.Close()
				return nil, nil, fmt.Errorf("shardexec: checkpoint shard size %d does not match requested %d", st.header.ShardSize, shardSize)
			}
			if st.header.Devices != spec.Devices {
				ck.Close()
				return nil, nil, fmt.Errorf("shardexec: checkpoint device count %d does not match spec %d", st.header.Devices, spec.Devices)
			}
			return ck, st, nil
		}
	}
	ck, err := createCheckpoint(path, spec, shardSize)
	return ck, nil, err
}

// runShardProcess executes one shard to completion: launch a worker,
// validate its output, retry with capped exponential backoff on any
// failure, and quarantine after maxAttempts. It returns the shard's
// frame and state and the attempts it launched. A cancelled parent
// context is reported as ctx's cause, never as a shard failure.
func runShardProcess(ctx context.Context, m Manifest, argv, env []string, timeout time.Duration, emit func(ShardEvent)) ([]byte, *fleet.ShardAggregate, int, error) {
	var attemptErrs []error
	backoff := retryBackoff
	for attempt := 1; ; attempt++ {
		m.Attempt = attempt
		emit(ShardEvent{Index: m.Index, Lo: m.Lo, Hi: m.Hi, Attempt: attempt, State: "start"})
		frame, sa, err := runWorkerAttempt(ctx, m, argv, env, timeout)
		if err == nil {
			emit(ShardEvent{Index: m.Index, Lo: m.Lo, Hi: m.Hi, Attempt: attempt, State: "ok"})
			return frame, sa, attempt, nil
		}
		if ctx.Err() != nil {
			// The parent gave up; the attempt's failure is a symptom,
			// not a shard fault.
			return nil, nil, attempt, context.Cause(ctx)
		}
		attemptErrs = append(attemptErrs, fmt.Errorf("attempt %d: %w", attempt, err))
		if attempt >= maxAttempts {
			emit(ShardEvent{Index: m.Index, Lo: m.Lo, Hi: m.Hi, Attempt: attempt, State: "quarantine", Err: err.Error()})
			return nil, nil, attempt, errors.Join(attemptErrs...)
		}
		emit(ShardEvent{Index: m.Index, Lo: m.Lo, Hi: m.Hi, Attempt: attempt, State: "retry", Err: err.Error()})
		select {
		case <-ctx.Done():
			return nil, nil, attempt, context.Cause(ctx)
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > maxRetryBackoff {
			backoff = maxRetryBackoff
		}
	}
}

// stderrLimit bounds how much worker stderr is kept for error messages.
const stderrLimit = 4 << 10

// tailBuffer keeps the last max bytes written to it.
type tailBuffer struct {
	max int
	b   []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.b = append(t.b, p...)
	if len(t.b) > t.max {
		t.b = t.b[len(t.b)-t.max:]
	}
	return len(p), nil
}

// runWorkerAttempt launches one worker process for the manifest and
// validates everything about its reply: exit status, frame integrity
// (magic, version, checksum), and that the shard is the one that was
// asked for.
func runWorkerAttempt(ctx context.Context, m Manifest, argv, env []string, timeout time.Duration) ([]byte, *fleet.ShardAggregate, error) {
	actx := ctx
	if timeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	stdin, err := m.Encode()
	if err != nil {
		return nil, nil, err
	}
	cmd := exec.CommandContext(actx, argv[0], argv[1:]...)
	cmd.Stdin = bytes.NewReader(stdin)
	var stdout bytes.Buffer
	stderr := &tailBuffer{max: stderrLimit}
	cmd.Stdout = &stdout
	cmd.Stderr = stderr
	cmd.Env = append(os.Environ(), env...)
	// A killed worker whose pipes are still open must not wedge Wait.
	cmd.WaitDelay = time.Second
	if err := cmd.Run(); err != nil {
		if actx.Err() != nil && ctx.Err() == nil {
			return nil, nil, fmt.Errorf("worker exceeded %v deadline (killed)", timeout)
		}
		msg := bytes.TrimSpace(stderr.b)
		if len(msg) > 0 {
			return nil, nil, fmt.Errorf("worker failed: %w: %s", err, msg)
		}
		return nil, nil, fmt.Errorf("worker failed: %w", err)
	}
	frame := stdout.Bytes()
	sa, err := fleet.DecodeShard(frame)
	if err != nil {
		return nil, nil, fmt.Errorf("worker output rejected: %w", err)
	}
	if sa.Index != m.Index || sa.Lo != m.Lo || sa.Hi != m.Hi {
		return nil, nil, fmt.Errorf("worker returned shard %d [%d, %d), want %d [%d, %d)", sa.Index, sa.Lo, sa.Hi, m.Index, m.Lo, m.Hi)
	}
	if hex.EncodeToString(sa.SpecHash[:]) != m.SpecHash {
		return nil, nil, fmt.Errorf("worker returned shard for a different spec")
	}
	return frame, sa, nil
}
