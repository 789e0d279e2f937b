// Package pool runs n independent jobs on a bounded set of goroutines
// and delivers their results in index order. Every parallel run in the
// repository goes through it: sim's RunAll family and Stream, a fleet's
// device runs, and the shard supervisor's worker processes.
package pool

import (
	"context"
	"errors"
	"runtime"
	"sync"
)

// Window is the most jobs Run holds prepared but not yet delivered. It
// bounds memory by the window, not by n: a result lives only until it
// is delivered.
const Window = 128

// Run calls prepare(i) for i = 0, 1, …, n-1 in order on one goroutine,
// run(i, p) on at most workers goroutines (≤ 0 means GOMAXPROCS), and
// deliver(i, t) in index order on the caller's goroutine, with at most
// min(Window, n) jobs prepared but not yet delivered.
//
// The first error from run or deliver, or ctx ending, stops the pool:
// nothing more is prepared, started or delivered, and jobs already
// running finish, so the delivered jobs are always a prefix. Run never
// cancels ctx and leaves no goroutine behind. It returns nil once every
// job is delivered; otherwise the failed jobs' errors joined in index
// order, or ctx's cause when no job failed. With n ≤ 0 it returns
// ctx.Err().
func Run[P, T any](ctx context.Context, n, workers int, prepare func(i int) P, run func(i int, p P) (T, error), deliver func(i int, t T) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	depth := min(Window, n)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Job i's input, result and error live in slots[i%depth]. Job
	// i+depth is prepared only after job i is delivered, so a slot holds
	// one job at a time, and every job prepared but not delivered still
	// has its error there. ready is the deliverer's own mark that the
	// job's index came back on done.
	type slot struct {
		p     P
		t     T
		err   error
		ready bool
	}
	slots := make([]slot, depth)
	// tokens holds one entry per job prepared but not yet delivered; as
	// jobs and done never hold more, sending to them never blocks.
	tokens := make(chan struct{}, depth)
	jobs := make(chan int, depth)
	done := make(chan int, depth)
	stop := make(chan struct{})
	var halt sync.Once
	var wg sync.WaitGroup
	stopped := func() bool {
		select {
		case <-stop:
		case <-ctx.Done():
		default:
			return false
		}
		return true
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(jobs)
		for i := 0; i < n; i++ {
			select {
			case tokens <- struct{}{}:
			case <-stop:
				return
			case <-ctx.Done():
				return
			}
			if stopped() {
				return
			}
			slots[i%depth].p = prepare(i)
			jobs <- i
		}
	}()
	for w := 0; w < min(workers, depth); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				s := &slots[i%depth]
				// A job received before the pool stopped still must
				// not start after it.
				if !stopped() {
					if s.t, s.err = run(i, s.p); s.err != nil {
						halt.Do(func() { close(stop) })
					}
				}
				s.p = *new(P)
				done <- i
			}
		}()
	}

	i := 0
	for ; i < n; i++ {
		s := &slots[i%depth]
		for !s.ready && !stopped() {
			select {
			case k := <-done:
				slots[k%depth].ready = true
			case <-stop:
			case <-ctx.Done():
			}
		}
		if stopped() {
			break
		}
		t := s.t
		s.t, s.ready = *new(T), false
		if s.err = deliver(i, t); s.err != nil {
			break
		}
		<-tokens
	}
	halt.Do(func() { close(stop) })
	wg.Wait()

	var errs []error
	for k := i; k < min(i+depth, n); k++ {
		if err := slots[k%depth].err; err != nil {
			errs = append(errs, err)
		}
	}
	switch {
	case errs != nil:
		return errors.Join(errs...)
	case i < n:
		return context.Cause(ctx)
	default:
		return nil
	}
}
