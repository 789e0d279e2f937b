package sim

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// The paper's evaluation is a grid of independent runs — workloads ×
// policies × trials, plus β-sweeps and large-population sweeps. Every
// run owns a private virtual clock, device, and RNG streams (seed-keyed
// via simclock.Rand), so the grid is embarrassingly parallel: this file
// fans it out over a bounded worker pool while keeping results
// byte-identical to serial execution (pinned by TestRunAllMatchesSerial
// under the race detector).

// Progress reports one finished run to a progress callback.
type Progress struct {
	// Index is the position of the finished run in the input slice.
	Index int
	// Done counts runs finished so far, including this one.
	Done int
	// Total is the number of runs in the batch.
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

// RunAll executes every configuration on a bounded worker pool and
// returns the results in input order.
//
// The first failed run cancels the pool — runs already in flight
// finish, no new runs start — and RunAll returns a nil slice with that
// run's error; cancelling ctx does the same with ctx.Err(). A panicking
// run (a buggy custom policy) fails like any other: its error unwraps to
// *PanicError with the stack attached, and the process does not crash.
func RunAll(ctx context.Context, cfgs []Config, opts RunAllOptions) ([]*Result, error) {
	results := make([]*Result, len(cfgs))
	err := runPool(ctx, cfgs, "run", opts, func(i int) (err error) {
		results[i], err = Run(cfgs[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// RunToEmptyAll discharges every configuration on the worker pool —
// run-to-empty simulations cover hundreds of simulated hours each, so
// they gain the most from fanning out. Results come back in input
// order; error semantics match RunAll.
func RunToEmptyAll(ctx context.Context, cfgs []Config, opts RunAllOptions) ([]*DrainResult, error) {
	results := make([]*DrainResult, len(cfgs))
	err := runPool(ctx, cfgs, "drain", opts, func(i int) (err error) {
		results[i], err = RunToEmpty(cfgs[i])
		return err
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

// runPool is the bounded-worker scaffolding under RunAll,
// RunToEmptyAll, and the trial helpers: a feeder hands out indices, a
// fixed set of workers executes fn, and the first failure (or ctx
// cancellation) stops the feeder so no new work starts. A panic in fn
// is recovered on the worker into a *PanicError and fails that run.
// verb names the run kind in error messages.
func runPool(ctx context.Context, cfgs []Config, verb string, opts RunAllOptions, fn func(i int) error) error {
	n := len(cfgs)
	if n == 0 {
		return ctx.Err()
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)

	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		done int
	)
	next := make(chan int)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(next)
		for i := 0; i < n; i++ {
			select {
			case next <- i:
			case <-ctx.Done():
				return
			}
		}
	}()

	// call runs one index, turning a panic into that run's error.
	call := func(i int) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = &PanicError{Value: r, Stack: debug.Stack()}
			}
		}()
		return fn(i)
	}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				start := time.Now()
				if err := call(i); err != nil {
					// First failure wins; later ones are no-ops.
					cancel(fmt.Errorf("sim: %s %d (%s): %w", verb, i, runLabel(cfgs[i]), err))
					return
				}
				if opts.Progress != nil {
					mu.Lock()
					done++
					opts.Progress(Progress{Index: i, Done: done, Total: n, Name: runLabel(cfgs[i]), Wall: time.Since(start)})
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait() // the feeder too: nothing outlives the call
	// Cause distinguishes "a run failed" (the cause passed to cancel)
	// from "the caller cancelled ctx" (its own error); nil means every
	// run finished.
	return context.Cause(ctx)
}
