package sim

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/freelist"
	"repro/internal/pool"
)

// The paper's evaluation is a grid of independent runs — workloads ×
// policies × trials, plus β-sweeps and large-population sweeps. Every
// run owns a private virtual clock, device, and RNG streams (seed-keyed
// via simclock.Rand), so the grid is embarrassingly parallel: this file
// puts it on the one ordered run pool (internal/pool), which runs up to
// Workers configurations at once, at most 128 ahead of delivery, and
// delivers the results in input order, byte-identical to serial
// execution (pinned by TestRunAllMatchesSerial under the race
// detector). There are no batches: a fleet's thousands of runs are one
// Stream.

// Progress reports one finished run to a progress callback.
type Progress struct {
	// Index is the position of the finished run in the input.
	Index int
	// Done counts runs finished so far, including this one.
	Done int
	// Total is the number of runs in the call.
	Total int
	// Name labels the run (Config.Name plus the policy).
	Name string
	// Wall is the real time this one run took.
	Wall time.Duration
}

// RunAllOptions tunes the parallel runner. The zero value uses
// GOMAXPROCS workers and no progress callback.
type RunAllOptions struct {
	// Workers bounds the worker pool; values ≤ 0 mean
	// runtime.GOMAXPROCS(0).
	Workers int
	// Progress, when non-nil, is called after each run completes.
	// Calls are serialized across workers, so the callback needs no
	// locking of its own, but it should not block for long.
	Progress func(Progress)
}

// PanicError is a panic recovered from a poisoned run, converted into
// that run's error so the process survives. Stack holds the panicking
// goroutine's trace.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("run panicked: %v\n%s", e.Value, e.Stack)
}

// RunAll executes every configuration on the run pool (internal/pool)
// and returns the results in input order.
//
// The first failed run stops the pool — runs already in flight finish,
// no new runs start — and RunAll returns a nil slice with the failed
// runs' errors; cancelling ctx does the same with ctx's cause. A
// panicking run (a buggy custom policy) fails like any other: its error
// unwraps to *PanicError with the stack attached, and the process does
// not crash.
func RunAll(ctx context.Context, cfgs []Config, opts RunAllOptions) ([]*Result, error) {
	return runAll(ctx, cfgs, "run", Run, opts)
}

// RunToEmptyAll discharges every configuration on the run pool —
// run-to-empty simulations cover hundreds of simulated hours each, so
// they gain the most from fanning out. Results come back in input
// order; error semantics match RunAll.
func RunToEmptyAll(ctx context.Context, cfgs []Config, opts RunAllOptions) ([]*DrainResult, error) {
	return runAll(ctx, cfgs, "drain", RunToEmpty, opts)
}

// Stream runs n configurations on the run pool and hands each result to
// deliver in index order, on the caller's goroutine, as soon as it and
// every run before it are done. cfg(i) builds run i's configuration; it
// is called in index order on one goroutine, at most
// min(pool.Window, n) runs ahead of delivery, so memory is bounded by
// that window, not by n.
// Error semantics match RunAll, and an error from deliver stops the
// pool like a failed run.
//
// The Results are lent, not given: the one delivered at index i stays
// valid until the delivery of i+1 returns, and a later run of the call
// then overwrites it, reusing its backend stats, arrival buckets and
// fault log. deliver may read Result i-1 beside Result i (a fleet folds
// a device's base and test runs together), and must keep no reference
// into a Result once the delivery after its own returns. The free list
// the Results go back to belongs to the call: a 500 h backend run's
// Result holds up to 180,000 buckets, too many to keep for good.
func Stream(ctx context.Context, n int, cfg func(i int) Config, opts RunAllOptions, deliver func(i int, r *Result) error) error {
	var (
		free freelist.Locked[Result]
		held *Result // delivered at i-1, on the caller's goroutine
	)
	run := func(c Config) (*Result, error) {
		// A worker never blocks between jobs, so the delivery its last
		// job readied, or one the scheduler preempted mid-fold, waits
		// for its P unless the worker yields. Yielding before each run
		// lets that delivery hand back the Result it superseded; a
		// worker that still finds none yields twice more before it makes
		// one. On one P a call thus makes two Results however long it
		// runs, and on more the Results lent stay at a handful; a worker
		// never waits for a slow delivery.
		runtime.Gosched()
		r := free.Get()
		for yields := 0; r == nil && yields < 2; yields++ {
			runtime.Gosched()
			r = free.Get()
		}
		// A run goes to its end: the pool sees ctx between runs, so a
		// cancelled stream fails with ctx's error, not a run's.
		return runInto(context.Background(), c, r)
	}
	return stream(ctx, n, "run", cfg, run, opts, func(i int, r *Result) error {
		err := deliver(i, r)
		if held != nil {
			free.Put(held)
		}
		held = r
		return err
	})
}

// runAll is stream with the results collected in input order.
func runAll[R any](ctx context.Context, cfgs []Config, verb string, exec func(Config) (R, error), opts RunAllOptions) ([]R, error) {
	results := make([]R, len(cfgs))
	err := stream(ctx, len(cfgs), verb, func(i int) Config { return cfgs[i] }, exec, opts, func(i int, r R) error {
		results[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// RunTrials repeats the configuration with seeds Seed, Seed+1, ... —
// the paper runs each experiment three times and reports the average.
// Trials are independent runs, so they execute in parallel; result i
// always carries seed Seed+i.
func RunTrials(cfg Config, trials int) ([]*Result, error) {
	return RunTrialsContext(context.Background(), cfg, trials, RunAllOptions{})
}

// RunTrialsContext is RunTrials with cancellation and runner options.
func RunTrialsContext(ctx context.Context, cfg Config, trials int, opts RunAllOptions) ([]*Result, error) {
	if trials <= 0 {
		return nil, fmt.Errorf("sim: non-positive trial count %d", trials)
	}
	cfgs := make([]Config, trials)
	for i := range cfgs {
		cfgs[i] = cfg
		cfgs[i].Seed = cfg.Seed + int64(i)
	}
	return RunAll(ctx, cfgs, opts)
}

// CompareTrials runs the same configuration under a baseline and a test
// policy for trials consecutive seeds, fanning all 2×trials runs over
// one pool. Comparison i pairs the base and test runs with seed Seed+i.
// Any Custom policy on cfg is ignored: the two named policies are what
// is being compared.
func CompareTrials(ctx context.Context, cfg Config, basePolicy, testPolicy string, trials int, opts RunAllOptions) ([]Comparison, error) {
	if trials <= 0 {
		return nil, fmt.Errorf("sim: non-positive trial count %d", trials)
	}
	cfgs := make([]Config, 0, 2*trials)
	for i := 0; i < trials; i++ {
		b := cfg
		b.Policy, b.Custom, b.Seed = basePolicy, nil, cfg.Seed+int64(i)
		t := cfg
		t.Policy, t.Custom, t.Seed = testPolicy, nil, cfg.Seed+int64(i)
		cfgs = append(cfgs, b, t)
	}
	rs, err := RunAll(ctx, cfgs, opts)
	if err != nil {
		return nil, err
	}
	cmps := make([]Comparison, trials)
	for i := range cmps {
		cmps[i] = Comparison{Base: rs[2*i], Test: rs[2*i+1]}
	}
	return cmps, nil
}

// Sweep fans one base configuration across n variants: vary(i, &c)
// mutates the i'th copy (set β, replicate the workload, switch policy)
// and every variant runs on the pool. Results come back in variant
// order.
func Sweep(ctx context.Context, base Config, n int, vary func(int, *Config), opts RunAllOptions) ([]*Result, error) {
	if n <= 0 {
		return nil, fmt.Errorf("sim: non-positive sweep size %d", n)
	}
	cfgs := make([]Config, n)
	for i := range cfgs {
		cfgs[i] = base
		if vary != nil {
			vary(i, &cfgs[i])
		}
	}
	return RunAll(ctx, cfgs, opts)
}

// runLabel names one run for progress lines and error messages.
func runLabel(c Config) string {
	c = c.withDefaults()
	pol := c.Policy
	if c.Custom != nil {
		pol = c.Custom.Name()
	}
	if c.Name != "" {
		return c.Name + "/" + pol
	}
	return pol
}

// stream is the one pool call under RunAll, RunToEmptyAll and Stream:
// exec runs each configuration on a pool worker, a panic in it is
// recovered into a *PanicError that fails that run, a failed run's
// error names it (verb labels the run kind), and Progress calls are
// serialized.
func stream[R any](ctx context.Context, n int, verb string, cfg func(int) Config, exec func(Config) (R, error), opts RunAllOptions, deliver func(int, R) error) error {
	var (
		mu   sync.Mutex
		done int
	)
	run := func(i int, c Config) (r R, err error) {
		start := time.Now()
		defer func() {
			if p := recover(); p != nil {
				err = &PanicError{Value: p, Stack: debug.Stack()}
			}
			switch {
			case err != nil:
				err = fmt.Errorf("sim: %s %d (%s): %w", verb, i, runLabel(c), err)
			case opts.Progress != nil:
				mu.Lock()
				done++
				opts.Progress(Progress{Index: i, Done: done, Total: n, Name: runLabel(c), Wall: time.Since(start)})
				mu.Unlock()
			}
		}()
		return exec(c)
	}
	return pool.Run(ctx, n, opts.Workers, cfg, run, deliver)
}
