package runstore

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// wait blocks until the run's done channel closes, with a test-failing
// timeout.
func wait(t *testing.T, s *Store, id string) Run {
	t.Helper()
	sub, err := s.Subscribe(id)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	select {
	case <-sub.Done():
	case <-time.After(10 * time.Second):
		t.Fatalf("run %s did not finish", id)
	}
	r, err := s.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestLifecycleDone(t *testing.T) {
	s := New(1)
	r, err := s.Submit("run", func(ctx context.Context, h Handle) (any, error) {
		h.SetProgress(1, 1)
		return "outcome", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.State != StatePending || !strings.HasPrefix(r.ID, "r-") {
		t.Fatalf("submitted run = %+v, want pending r-*", r)
	}
	got := wait(t, s, r.ID)
	if got.State != StateDone || got.Result != "outcome" || got.Error != "" {
		t.Fatalf("finished run = %+v, want done with result", got)
	}
	if got.Done != 1 || got.Total != 1 {
		t.Fatalf("progress counters = %d/%d, want 1/1", got.Done, got.Total)
	}
	if got.Started.IsZero() || got.Finished.IsZero() {
		t.Fatalf("timestamps missing: %+v", got)
	}
}

func TestLifecycleFailedKeepsPartialResult(t *testing.T) {
	s := New(1)
	boom := errors.New("shard 3 exploded")
	r, _ := s.Submit("fleet", func(ctx context.Context, h Handle) (any, error) {
		return "partial aggregate", boom
	})
	got := wait(t, s, r.ID)
	if got.State != StateFailed {
		t.Fatalf("state = %s, want failed", got.State)
	}
	if got.Error != boom.Error() {
		t.Fatalf("error = %q, want %q", got.Error, boom)
	}
	if got.Result != "partial aggregate" {
		t.Fatalf("partial result lost: %+v", got.Result)
	}
}

func TestCancelQueuedRunNeverStarts(t *testing.T) {
	s := New(1)
	release := make(chan struct{})
	blocker, _ := s.Submit("run", func(ctx context.Context, h Handle) (any, error) {
		<-release
		return nil, nil
	})
	started := false
	queued, _ := s.Submit("run", func(ctx context.Context, h Handle) (any, error) {
		started = true
		return nil, nil
	})
	if _, err := s.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	got := wait(t, s, queued.ID)
	if got.State != StateCancelled {
		t.Fatalf("state = %s, want cancelled", got.State)
	}
	close(release)
	wait(t, s, blocker.ID)
	if started {
		t.Fatal("cancelled queued run executed anyway")
	}
}

func TestCancelRunningRunIsCancelledNotFailed(t *testing.T) {
	s := New(1)
	running := make(chan struct{})
	r, _ := s.Submit("fleet", func(ctx context.Context, h Handle) (any, error) {
		close(running)
		<-ctx.Done()
		// Mimic fleet.Run's contract: wrapped ctx error plus a partial
		// result.
		return "partial", ctx.Err()
	})
	<-running
	if _, err := s.Cancel(r.ID); err != nil {
		t.Fatal(err)
	}
	got := wait(t, s, r.ID)
	if got.State != StateCancelled {
		t.Fatalf("state = %s, want cancelled (not failed)", got.State)
	}
	if got.Result != "partial" {
		t.Fatalf("partial result lost on cancel: %+v", got.Result)
	}
	if _, err := s.Cancel(r.ID); !errors.Is(err, ErrFinished) {
		t.Fatalf("second cancel = %v, want ErrFinished", err)
	}
}

func TestBoundedConcurrency(t *testing.T) {
	const slots = 2
	s := New(slots)
	var mu sync.Mutex
	var cur, peak int
	release := make(chan struct{})
	ids := make([]string, 6)
	for i := range ids {
		r, err := s.Submit("run", func(ctx context.Context, h Handle) (any, error) {
			mu.Lock()
			cur++
			if cur > peak {
				peak = cur
			}
			mu.Unlock()
			<-release
			mu.Lock()
			cur--
			mu.Unlock()
			return nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = r.ID
	}
	// Let the executors hit the semaphore.
	time.Sleep(50 * time.Millisecond)
	mu.Lock()
	if peak > slots {
		mu.Unlock()
		t.Fatalf("%d concurrent executions, limit %d", peak, slots)
	}
	mu.Unlock()
	close(release)
	for _, id := range ids {
		if got := wait(t, s, id); got.State != StateDone {
			t.Fatalf("run %s = %s, want done", id, got.State)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if peak > slots {
		t.Fatalf("%d concurrent executions, limit %d", peak, slots)
	}
}

func TestSubscribeReceivesEventsInOrder(t *testing.T) {
	s := New(1)
	gate := make(chan struct{})
	r, _ := s.Submit("fleet", func(ctx context.Context, h Handle) (any, error) {
		<-gate // subscriber attaches first
		for i := 1; i <= 5; i++ {
			h.Publish(Event{Type: "device", Data: i})
		}
		return nil, nil
	})
	sub, err := s.Subscribe(r.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	close(gate)
	<-doneOrTimeout(t, sub.Done())
	// Drain whatever was buffered: device events must appear in publish
	// order.
	last := 0
	for _, ev := range sub.Take(nil) {
		if ev.Type != "device" {
			continue
		}
		n := ev.Data.(int)
		if n <= last {
			t.Fatalf("device event %d after %d: order lost", n, last)
		}
		last = n
	}
	if last != 5 {
		t.Fatalf("drained up to %d, want 5", last)
	}
}

func doneOrTimeout(t *testing.T, done <-chan struct{}) <-chan struct{} {
	t.Helper()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("run did not finish")
	}
	return done
}

func TestSubscribeAfterTerminalState(t *testing.T) {
	s := New(1)
	r, _ := s.Submit("run", func(ctx context.Context, h Handle) (any, error) { return 42, nil })
	wait(t, s, r.ID)
	sub, err := s.Subscribe(r.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	select {
	case <-sub.Done():
	default:
		t.Fatal("done channel open for a finished run")
	}
}

func TestGetListNotFound(t *testing.T) {
	s := New(1)
	if _, err := s.Get("r-999999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get unknown = %v, want ErrNotFound", err)
	}
	if _, err := s.Cancel("f-999999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Cancel unknown = %v, want ErrNotFound", err)
	}
	if _, err := s.Subscribe("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Subscribe unknown = %v, want ErrNotFound", err)
	}
	a, _ := s.Submit("run", func(ctx context.Context, h Handle) (any, error) { return nil, nil })
	b, _ := s.Submit("fleet", func(ctx context.Context, h Handle) (any, error) { return nil, nil })
	wait(t, s, a.ID)
	wait(t, s, b.ID)
	runs := s.List()
	if len(runs) != 2 {
		t.Fatalf("List = %d entries, want 2", len(runs))
	}
	if runs[0].Kind != "run" || runs[1].Kind != "fleet" {
		// Oldest first: submission order, whatever the kind prefix.
		t.Fatalf("List order/kinds wrong: %+v", runs)
	}
}

// TestListOldestFirstPastSixDigitIDs: IDs outgrow their six-digit
// padding at the millionth submission, where r-1000000 sorts before
// r-999999 as a string; List must still return submission order.
func TestListOldestFirstPastSixDigitIDs(t *testing.T) {
	s := New(1)
	s.seq = 999_998
	var want []string
	for range 3 {
		r, err := s.Submit("run", func(ctx context.Context, h Handle) (any, error) { return nil, nil })
		if err != nil {
			t.Fatal(err)
		}
		wait(t, s, r.ID)
		want = append(want, r.ID)
	}
	var got []string
	for _, r := range s.List() {
		got = append(got, r.ID)
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("List = %v, want submission order %v", got, want)
	}
}

func TestDrainWaitsForInFlight(t *testing.T) {
	s := New(2)
	release := make(chan struct{})
	r, _ := s.Submit("run", func(ctx context.Context, h Handle) (any, error) {
		<-release
		return "late", nil
	})
	go func() {
		time.Sleep(50 * time.Millisecond)
		close(release)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain = %v, want clean", err)
	}
	got, _ := s.Get(r.ID)
	if got.State != StateDone || got.Result != "late" {
		t.Fatalf("drained run = %+v, want done", got)
	}
	if _, err := s.Submit("run", func(ctx context.Context, h Handle) (any, error) { return nil, nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after drain = %v, want ErrClosed", err)
	}
}

func TestDrainDeadlineCancelsStragglers(t *testing.T) {
	s := New(2)
	r, _ := s.Submit("fleet", func(ctx context.Context, h Handle) (any, error) {
		<-ctx.Done() // only shutdown's cancellation ends this run
		return nil, ctx.Err()
	})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain = %v, want deadline exceeded", err)
	}
	got, _ := s.Get(r.ID)
	if got.State != StateCancelled {
		t.Fatalf("straggler = %s, want cancelled", got.State)
	}
}

// TestConcurrentSubmitGetCancel hammers every store operation from many
// goroutines at once — meaningful under -race (make verify runs it so).
func TestConcurrentSubmitGetCancel(t *testing.T) {
	s := New(4)
	var wg sync.WaitGroup
	ids := make(chan string, 64)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				r, err := s.Submit("run", func(ctx context.Context, h Handle) (any, error) {
					h.SetProgress(1, 2)
					h.Publish(Event{Type: "device", Data: 1})
					h.SetProgress(2, 2)
					return "ok", nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				ids <- r.ID
			}
		}()
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 16; j++ {
				id := <-ids
				if j%3 == 0 {
					s.Cancel(id) // racing a finished run is the point
				}
				if _, err := s.Get(id); err != nil {
					t.Error(err)
				}
				s.List()
			}
		}()
	}
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	for _, r := range s.List() {
		if !r.State.Terminal() {
			t.Fatalf("run %s left in %s after drain", r.ID, r.State)
		}
	}
}

// TestActiveDuringConcurrentSubmissions: Active reads every entry's
// state under the store lock while runs are submitted, execute and
// finish around it, and counts none once the store has drained.
func TestActiveDuringConcurrentSubmissions(t *testing.T) {
	s := New(4)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				if _, err := s.Submit("run", func(ctx context.Context, h Handle) (any, error) { return nil, nil }); err != nil {
					t.Error(err)
					return
				}
				if n := s.Active(); n < 0 || n > 64 {
					t.Errorf("Active = %d with at most 64 runs submitted", n)
				}
			}
		}()
	}
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if n := s.Active(); n != 0 {
		t.Fatalf("Active = %d after drain, want 0", n)
	}
}

// TestSubscriptionOverflowKeepsOldestAndCounts: a subscriber that takes
// nothing while 1,500 events are published finds the first subBuffer of
// them, in order, on its next take, and the rest counted as dropped;
// events published after that take still arrive.
func TestSubscriptionOverflowKeepsOldestAndCounts(t *testing.T) {
	const published = 1500
	s := New(1)
	started, gate, sent, release := make(chan struct{}), make(chan struct{}), make(chan struct{}), make(chan struct{})
	r, _ := s.Submit("fleet", func(ctx context.Context, h Handle) (any, error) {
		close(started)
		<-gate
		for i := 1; i <= published; i++ {
			h.Publish(Event{Type: "device", Data: i})
		}
		close(sent)
		<-release
		h.Publish(Event{Type: "device", Data: published + 1})
		return nil, nil
	})
	<-started // the running state event went out before anyone listened
	sub, err := s.Subscribe(r.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	close(gate)
	<-sent
	evs := sub.Take(nil)
	if len(evs) != subBuffer {
		t.Fatalf("took %d events, want the first %d", len(evs), subBuffer)
	}
	for i, ev := range evs {
		if ev.Type != "device" || ev.Data != i+1 {
			t.Fatalf("event %d = %s %v, want device %d", i, ev.Type, ev.Data, i+1)
		}
	}
	if n := sub.Dropped(); n != published-subBuffer {
		t.Fatalf("Dropped = %d, want %d", n, published-subBuffer)
	}
	close(release)
	<-doneOrTimeout(t, sub.Done())
	evs = sub.Take(evs)
	if len(evs) != 2 || evs[0].Data != published+1 || evs[1].Type != "state" {
		t.Fatalf("after the take: %+v, want device %d then the terminal state", evs, published+1)
	}
	if n := sub.Dropped(); n != published-subBuffer {
		t.Fatalf("Dropped = %d after the take, want it unchanged at %d", n, published-subBuffer)
	}
}

// TestTakenBatchDoesNotCountAgainstTheCap pins the bound the docs
// state: a batch the reader has taken and not handed back does not
// count against subBuffer, so the queue starts again from empty and a
// reader falls 2×subBuffer events behind before one drops.
func TestTakenBatchDoesNotCountAgainstTheCap(t *testing.T) {
	s := New(1)
	handle, release := make(chan Handle), make(chan struct{})
	r, _ := s.Submit("run", func(ctx context.Context, h Handle) (any, error) {
		handle <- h
		<-release
		return nil, nil
	})
	defer func() {
		close(release)
		wait(t, s, r.ID)
	}()
	h := <-handle
	sub, err := s.Subscribe(r.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	var held []Event
	for i := 1; i <= 2*subBuffer+1; i++ {
		if i == subBuffer+1 {
			held = sub.Take(nil)
		}
		h.Publish(Event{Type: "device", Data: i})
	}
	next := sub.Take(nil)
	if len(held) != subBuffer || len(next) != subBuffer || next[0].Data != subBuffer+1 || next[subBuffer-1].Data != 2*subBuffer {
		t.Fatalf("took %d then %d events, want %d then events %d..%d",
			len(held), len(next), subBuffer, subBuffer+1, 2*subBuffer)
	}
	if n := sub.Dropped(); n != 1 {
		t.Fatalf("Dropped = %d, want 1", n)
	}
}

// TestSubscriptionAllocatesItsBacklog: a subscription costs what it
// queues, not subBuffer slots up front. Subscribing, two published
// events, one take and close stay under 1 KB, averaged over 100 rounds
// so that what the rest of the process allocates meanwhile (a loaded
// -race run once added 5.5 KB to a single round) does not count.
func TestSubscriptionAllocatesItsBacklog(t *testing.T) {
	const rounds = 100
	s := New(1)
	handle, release := make(chan Handle), make(chan struct{})
	r, _ := s.Submit("run", func(ctx context.Context, h Handle) (any, error) {
		handle <- h
		<-release
		return nil, nil
	})
	defer func() {
		close(release)
		wait(t, s, r.ID)
	}()
	h := <-handle
	ev := Event{Type: "device", Data: 1}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range rounds {
		sub, err := s.Subscribe(r.ID)
		if err != nil {
			t.Fatal(err)
		}
		h.Publish(ev)
		h.Publish(ev)
		got := len(sub.Take(nil))
		sub.Close()
		if got != 2 {
			t.Fatalf("took %d events, want 2", got)
		}
	}
	runtime.ReadMemStats(&after)
	if n := (after.TotalAlloc - before.TotalAlloc) / rounds; n >= 1024 {
		t.Fatalf("subscribe, two events, take and close allocated %d bytes a round, want under 1 KB", n)
	}
}

// TestPanickingExecFailsItsRun: an Exec that panics lands its run in
// failed with the panic value in the error, and the store drains.
func TestPanickingExecFailsItsRun(t *testing.T) {
	s := New(1)
	r, _ := s.Submit("run", func(ctx context.Context, h Handle) (any, error) {
		panic("poisoned exec")
	})
	got := wait(t, s, r.ID)
	if got.State != StateFailed || !strings.Contains(got.Error, "poisoned exec") {
		t.Fatalf("panicked run = %s (%q), want failed naming the panic", got.State, got.Error)
	}
	next, _ := s.Submit("run", func(ctx context.Context, h Handle) (any, error) { return "ok", nil })
	if got := wait(t, s, next.ID); got.State != StateDone {
		t.Fatalf("run after the panic = %s, want done", got.State)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain = %v, want nil", err)
	}
}

// TestSubscribersSeeEveryEventOrCountIt: readers that take their
// backlog on every wake while the run publishes each receive the
// device events in order, and every device event and the terminal
// state either reach a reader or are counted in its Dropped. Run under
// -race, it exercises the queue from the publisher and every reader at
// once.
func TestSubscribersSeeEveryEventOrCountIt(t *testing.T) {
	const readers, published = 4, 20000
	s := New(1)
	gate := make(chan struct{})
	r, _ := s.Submit("fleet", func(ctx context.Context, h Handle) (any, error) {
		<-gate
		for i := 1; i <= published; i++ {
			h.Publish(Event{Type: "device", Data: i})
		}
		return nil, nil
	})
	var wg sync.WaitGroup
	for range readers {
		sub, err := s.Subscribe(r.ID)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer sub.Close()
			received, last := 0, 0
			count := func(evs []Event) {
				for _, ev := range evs {
					switch {
					case ev.Type == "device":
						if n := ev.Data.(int); n <= last {
							t.Errorf("device event %d after %d", n, last)
						} else {
							last = n
						}
						received++
					case ev.Data.(stateData).State == StateDone:
						received++
					}
				}
			}
			var batch []Event
			for {
				select {
				case <-sub.Wake():
					batch = sub.Take(batch)
					count(batch)
				case <-sub.Done():
					count(sub.Take(batch))
					if n := received + sub.Dropped(); n != published+1 {
						t.Errorf("%d events received + %d dropped, want %d published", received, sub.Dropped(), published+1)
					}
					return
				}
			}
		}()
	}
	close(gate)
	wg.Wait()
}
