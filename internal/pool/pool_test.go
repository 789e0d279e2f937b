package pool

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// noLeak fails the test if the goroutine count does not return to
// before. A goroutine is still counted between its wg.Done and its
// exit, so the count gets a moment to settle.
func noLeak(t *testing.T, before int) {
	t.Helper()
	after := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); after > before && time.Now().Before(deadline); after = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	if after > before {
		t.Errorf("goroutines: %d before Run, %d after", before, after)
	}
}

// waitFor polls cond until it holds or five seconds pass. Pool
// goroutines call it, so a timeout is t.Error, not t.Fatal.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Errorf("timed out waiting for %s", what)
			return
		}
	}
}

// TestPoolRunDeliversInIndexOrder: with random job durations, results
// arrive in index order, each with its own job's value, and no more
// than workers jobs run at once.
func TestPoolRunDeliversInIndexOrder(t *testing.T) {
	const n, workers = 300, 6
	before := runtime.NumGoroutine()
	rng := rand.New(rand.NewSource(1))
	sleeps := make([]time.Duration, n)
	for i := range sleeps {
		sleeps[i] = time.Duration(rng.Intn(400)) * time.Microsecond
	}
	var running, maxRunning atomic.Int64
	var got []int
	err := Run(context.Background(), n, workers,
		func(i int) int { return 3 * i },
		func(i, p int) (string, error) {
			r := running.Add(1)
			for m := maxRunning.Load(); r > m && !maxRunning.CompareAndSwap(m, r); m = maxRunning.Load() {
			}
			time.Sleep(sleeps[i])
			running.Add(-1)
			return fmt.Sprint(p), nil
		},
		func(i int, s string) error {
			if want := fmt.Sprint(3 * i); s != want {
				t.Errorf("job %d delivered %q, want %q", i, s, want)
			}
			got = append(got, i)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("delivered %d of %d jobs", len(got), n)
	}
	for k, i := range got {
		if i != k {
			t.Fatalf("delivery %d was job %d: out of index order", k, i)
		}
	}
	if m := maxRunning.Load(); m > workers {
		t.Errorf("%d jobs ran at once with %d workers", m, workers)
	}
	noLeak(t, before)
}

// TestPoolRunPreparesInOrderOnOneGoroutine: prepare sees 0, 1, …, n-1
// in order. Its state is unsynchronized on purpose, so under -race a
// second goroutine calling prepare is a reported race.
func TestPoolRunPreparesInOrderOnOneGoroutine(t *testing.T) {
	const n = 500
	next := 0
	var order []int
	err := Run(context.Background(), n, 8,
		func(i int) int {
			if i != next {
				t.Errorf("prepare(%d) called, want prepare(%d)", i, next)
			}
			next++
			order = append(order, i)
			return i
		},
		func(i, p int) (int, error) { return p, nil },
		func(int, int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if next != n || len(order) != n {
		t.Fatalf("prepared %d jobs, want %d", next, n)
	}
}

// TestPoolRunBoundsPreparedJobs: the jobs prepared but not yet
// delivered never exceed min(128, n), and a stalled delivery lets the
// pool prepare exactly up to that bound.
func TestPoolRunBoundsPreparedJobs(t *testing.T) {
	for _, n := range []int{1, 5, 128, 129, 1000} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			limit := int64(min(128, n))
			var prepared, delivered, worst atomic.Int64
			err := Run(context.Background(), n, 4,
				func(i int) int {
					d := delivered.Load()
					if out := prepared.Add(1) - d; out > worst.Load() {
						worst.Store(out) // prepare runs on one goroutine
					}
					return i
				},
				func(i, p int) (int, error) { return p, nil },
				func(i, _ int) error {
					if i == 0 {
						// Stall the first delivery until the window fills.
						waitFor(t, "the window to fill", func() bool { return prepared.Load() == limit })
					}
					delivered.Add(1)
					return nil
				})
			if err != nil {
				t.Fatal(err)
			}
			if w := worst.Load(); w != limit {
				t.Fatalf("at most %d jobs prepared but undelivered, want exactly min(128, %d) = %d", w, n, limit)
			}
		})
	}
}

// TestPoolRunErrorStopsPool: jobs k…k+3 fail together once the window
// is full. Nothing is prepared, started or delivered after that, the
// delivered jobs are the prefix 0…k-1, and errors.Is finds every failed
// job's error in the joined result. A job still running when another
// fails finishes before Run returns.
func TestPoolRunErrorStopsPool(t *testing.T) {
	const n, k, workers = 400, 50, 4
	before := runtime.NumGoroutine()
	errs := make(map[int]error)
	for i := k; i < k+workers; i++ {
		errs[i] = fmt.Errorf("job %d failed", i)
	}
	var prepared atomic.Int64
	var started sync.Map
	var barrier sync.WaitGroup
	barrier.Add(workers)
	var delivered []int
	err := Run(context.Background(), n, workers,
		func(i int) int { prepared.Add(1); return i },
		func(i, _ int) (int, error) {
			started.Store(i, true)
			if errs[i] == nil {
				return i, nil
			}
			if i == k {
				// Delivery waits on job k, so the window fills at k+128.
				waitFor(t, "the window to fill", func() bool { return prepared.Load() == k+window })
			}
			barrier.Done()
			barrier.Wait()
			return 0, errs[i]
		},
		func(i, _ int) error { delivered = append(delivered, i); return nil })
	if err == nil {
		t.Fatal("failed jobs returned no error")
	}
	for i, e := range errs {
		if !errors.Is(err, e) {
			t.Errorf("errors.Is does not find job %d's error in %v", i, err)
		}
	}
	if len(delivered) != k {
		t.Fatalf("delivered %d jobs, want the prefix of %d before the failure", len(delivered), k)
	}
	for j, i := range delivered {
		if i != j {
			t.Fatalf("delivery %d was job %d", j, i)
		}
	}
	if p := prepared.Load(); p != k+window {
		t.Errorf("prepared %d jobs, want %d: preparing went on after the failure", p, k+window)
	}
	started.Range(func(key, _ any) bool {
		if i := key.(int); i >= k+workers {
			t.Errorf("job %d started after the failure", i)
		}
		return true
	})
	noLeak(t, before)

	// Job 1 is still running when job 0 fails.
	var running, failed, slowDone atomic.Bool
	boom := errors.New("job 0 failed")
	err = Run(context.Background(), 10, 2,
		func(i int) int { return i },
		func(i, _ int) (int, error) {
			switch i {
			case 0:
				waitFor(t, "job 1 to start", running.Load)
				failed.Store(true)
				return 0, boom
			case 1:
				running.Store(true)
				waitFor(t, "job 0 to fail", failed.Load)
				time.Sleep(20 * time.Millisecond)
				slowDone.Store(true)
			}
			return i, nil
		},
		func(int, int) error { return nil })
	if !errors.Is(err, boom) || !slowDone.Load() {
		t.Fatalf("err = %v, running job finished = %v: want job 0's error after job 1 finished", err, slowDone.Load())
	}
}

// TestPoolRunDeliverErrorStopsPool: an error from deliver(k) stops the
// pool the same way: deliver is not called again, nothing more is
// prepared, and the error comes back.
func TestPoolRunDeliverErrorStopsPool(t *testing.T) {
	const n, k = 400, 30
	before := runtime.NumGoroutine()
	boom := errors.New("deliver failed")
	var prepared atomic.Int64
	var delivered []int
	err := Run(context.Background(), n, 3,
		func(i int) int { prepared.Add(1); return i },
		func(i, _ int) (int, error) { return i, nil },
		func(i, _ int) error {
			delivered = append(delivered, i)
			if i == k {
				waitFor(t, "the window to fill", func() bool { return prepared.Load() == k+window })
				return boom
			}
			return nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the deliver error", err)
	}
	if len(delivered) != k+1 || delivered[k] != k {
		t.Fatalf("deliver called for %v, want 0…%d", delivered, k)
	}
	if p := prepared.Load(); p != k+window {
		t.Errorf("prepared %d jobs, want %d: preparing went on after the failure", p, k+window)
	}
	noLeak(t, before)
}

// TestPoolRunOneWorkerFirstJobFails: with one worker and job 0 failing,
// no other job runs, though the worker may already hold the next one.
func TestPoolRunOneWorkerFirstJobFails(t *testing.T) {
	boom := errors.New("job 0 failed")
	var runs atomic.Int64
	err := Run(context.Background(), 50, 1,
		func(i int) int { return i },
		func(i, _ int) (int, error) {
			runs.Add(1)
			if i == 0 {
				return 0, boom
			}
			return i, nil
		},
		func(int, int) error { t.Error("deliver called after job 0 failed"); return nil })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want job 0's error", err)
	}
	if r := runs.Load(); r != 1 {
		t.Fatalf("%d jobs ran, want only the failing job 0", r)
	}
}

// TestPoolRunCancelInsideDeliver: cancelling ctx inside deliver(k)
// leaves exactly k+1 jobs delivered and returns ctx's cause; cancelling
// inside prepare stops preparing. The pool itself never cancels ctx.
func TestPoolRunCancelInsideDeliver(t *testing.T) {
	const n, k = 300, 40
	before := runtime.NumGoroutine()
	cause := errors.New("caller gave up")
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	delivered := 0
	err := Run(ctx, n, 4,
		func(i int) int { return i },
		func(i, _ int) (int, error) { return i, nil },
		func(i, _ int) error {
			delivered++
			if i == k {
				cancel(cause)
			}
			return nil
		})
	if !errors.Is(err, cause) {
		t.Fatalf("err = %v, want ctx's cause", err)
	}
	if delivered != k+1 {
		t.Fatalf("delivered %d jobs, want %d", delivered, k+1)
	}
	noLeak(t, before)

	// Cancelling inside prepare(k) prepares nothing more, though the
	// window has room: the pool checks ctx after taking a window slot
	// as well as while waiting for one. Repeated, since the wait is a
	// select that may pick either ready case.
	for rep := 0; rep < 20; rep++ {
		ctx, cancel := context.WithCancel(context.Background())
		last := -1
		err := Run(ctx, 64, 2,
			func(i int) int {
				last = i
				if i == 5 {
					cancel()
				}
				return i
			},
			func(i, _ int) (int, error) { return i, nil },
			func(int, int) error { return nil })
		cancel()
		if !errors.Is(err, context.Canceled) || last != 5 {
			t.Fatalf("cancelled in prepare(5): err %v, last prepared %d", err, last)
		}
	}

	// A pool that finishes leaves its caller's ctx alone.
	ctx, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	if err := Run(ctx, 10, 2, func(i int) int { return i },
		func(i, _ int) (int, error) { return 0, errors.New("fails") },
		func(int, int) error { return nil }); err == nil || ctx.Err() != nil {
		t.Fatalf("err = %v, ctx.Err() = %v: want the job error and a live ctx", err, ctx.Err())
	}
}

// TestPoolRunEmpty: n == 0 calls nothing and returns ctx.Err(), as
// sim.RunAll always has.
func TestPoolRunEmpty(t *testing.T) {
	called := false
	prepare := func(int) int { called = true; return 0 }
	run := func(int, int) (int, error) { called = true; return 0, nil }
	deliver := func(int, int) error { called = true; return nil }
	if err := Run(context.Background(), 0, 4, prepare, run, deliver); err != nil {
		t.Fatalf("empty pool: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Run(ctx, 0, 4, prepare, run, deliver); !errors.Is(err, context.Canceled) {
		t.Fatalf("empty pool on a cancelled ctx: %v, want context.Canceled", err)
	}
	if called {
		t.Fatal("an empty pool called prepare, run or deliver")
	}
}
