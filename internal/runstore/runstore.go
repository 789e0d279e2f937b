// Package runstore is the concurrent in-memory run registry behind the
// wakesimd service: every submitted simulation — one device or a whole
// fleet — becomes an entry keyed by run ID, moves through the
// pending → running → done/failed/cancelled state machine, and fans its
// progress events out to any number of subscribers (the SSE handlers).
//
// Executions are bounded: at most the configured number of runs execute
// at once, the rest queue in pending state in submission order. Each
// entry owns a context.CancelFunc, so a DELETE cancels a running fleet
// mid-flight (the run pool under every execution observes the context
// and delivers nothing more) and a queued one before it ever starts. Close stops new
// submissions; Drain waits for in-flight work so a SIGTERM can land
// without truncating anyone's fleet.
package runstore

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// State is a run's position in its lifecycle.
type State string

const (
	// StatePending — accepted, waiting for an execution slot.
	StatePending State = "pending"
	// StateRunning — executing on the simulation pools.
	StateRunning State = "running"
	// StateDone — finished cleanly; Result holds the outcome.
	StateDone State = "done"
	// StateFailed — finished with an error; Error holds it, and Result
	// may still hold a partial outcome (a fleet keeps the shards that
	// folded before the failure).
	StateFailed State = "failed"
	// StateCancelled — cancelled by the client or by shutdown, either
	// before starting or mid-run.
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Event is one progress message fanned out to subscribers. Type names
// the SSE event; Data is its JSON-marshalable payload.
type Event struct {
	Type string
	Data any
}

// Run is a point-in-time snapshot of one entry, safe to marshal.
type Run struct {
	ID      string    `json:"id"`
	Kind    string    `json:"kind"`
	State   State     `json:"state"`
	Created time.Time `json:"created"`
	// Started/Finished are zero until the run leaves pending /
	// reaches a terminal state.
	Started  time.Time `json:"started,omitempty"`
	Finished time.Time `json:"finished,omitempty"`
	// Done/Total track execution progress in the executor's own units
	// (devices for a fleet).
	Done  int `json:"done,omitempty"`
	Total int `json:"total,omitempty"`
	// Attempts/Retries count worker-process launches when the run is
	// backed by the multi-process shard supervisor
	// (internal/shardexec); both stay zero for in-process runs.
	Attempts int `json:"attempts,omitempty"`
	Retries  int `json:"retries,omitempty"`
	// Error is the failure, when State is failed (or cancelled with a
	// cause).
	Error string `json:"error,omitempty"`
	// Result is the stored outcome: set when done, and possibly also
	// when failed (a partial fleet aggregate).
	Result any `json:"result,omitempty"`
}

// Handle is the executor's view of its own entry: publish progress
// events and update the stored counters. Methods are safe to call from
// the execution goroutine (the simulation pools serialize their
// progress callbacks already).
type Handle struct{ e *entry }

// Publish fans an event out to every subscriber. Sends never block: a
// subscriber that falls behind its buffer loses intermediate events
// (order is preserved, so monotonic counters stay monotonic), and every
// subscriber is guaranteed the terminal state via Subscribe's done
// channel regardless.
func (h Handle) Publish(ev Event) { h.e.publish(ev) }

// SetProgress updates the entry's stored done/total counters, visible
// in Get/List snapshots while the run executes.
func (h Handle) SetProgress(done, total int) {
	h.e.mu.Lock()
	h.e.run.Done, h.e.run.Total = done, total
	h.e.mu.Unlock()
}

// SetShardStats updates the entry's shard-supervisor counters, visible
// in Get/List snapshots while a multi-process fleet executes.
func (h Handle) SetShardStats(attempts, retries int) {
	h.e.mu.Lock()
	h.e.run.Attempts, h.e.run.Retries = attempts, retries
	h.e.mu.Unlock()
}

// Exec performs the submitted work. The returned value is stored as the
// run's Result; returning a non-nil value alongside an error stores a
// partial result with the failure (fleet.Run's partial-aggregate
// contract). Exec must respect ctx: cancellation is how DELETE and
// shutdown reach a running simulation.
type Exec func(ctx context.Context, h Handle) (any, error)

// ErrClosed is returned by Submit after Close: the store is draining
// and accepts no new work.
var ErrClosed = errors.New("runstore: store closed")

// ErrNotFound marks an unknown run ID.
var ErrNotFound = errors.New("runstore: no such run")

// ErrFinished marks a cancel of an already-terminal run.
var ErrFinished = errors.New("runstore: run already finished")

// subBuffer is each subscriber's event buffer. Fleet folds publish a
// handful of small events per device; 1024 absorbs bursts from a fast
// fleet while a slow SSE client catches up, and overflow degrades to
// skipped intermediate events, never a blocked fold loop.
const subBuffer = 1024

type entry struct {
	// seq is the entry's submission number, the List order.
	seq    int
	mu     sync.Mutex
	run    Run
	ctx    context.Context
	cancel context.CancelFunc
	// cancelled records an explicit Cancel so the terminal state is
	// StateCancelled even if the executor dresses the context error.
	cancelled bool
	subs      map[int]chan Event
	subSeq    int
	// done closes when the run reaches a terminal state.
	done chan struct{}
}

// Store is the concurrent run registry. The zero value is not usable;
// call New.
type Store struct {
	mu      sync.Mutex
	entries map[string]*entry
	seq     int
	closed  bool
	// sem bounds concurrent executions; wg tracks them for Drain.
	sem chan struct{}
	wg  sync.WaitGroup
}

// DefaultMaxConcurrent bounds simultaneous executions when New is given
// a non-positive limit. Each execution saturates its own run pool, so
// a small number of slots already fills the machine; more
// slots trade per-run latency for fairness across submitters.
const DefaultMaxConcurrent = 2

// New builds a store executing at most maxConcurrent runs at once
// (≤ 0 means DefaultMaxConcurrent).
func New(maxConcurrent int) *Store {
	if maxConcurrent <= 0 {
		maxConcurrent = DefaultMaxConcurrent
	}
	return &Store{
		entries: make(map[string]*entry),
		sem:     make(chan struct{}, maxConcurrent),
	}
}

// Submit registers new work under a fresh ID and schedules it for
// execution. kind labels the entry ("run" or "fleet") and prefixes the
// ID. The returned snapshot is the entry in pending state.
func (s *Store) Submit(kind string, exec Exec) (Run, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return Run{}, ErrClosed
	}
	s.seq++
	id := fmt.Sprintf("%s-%06d", kindPrefix(kind), s.seq)
	ctx, cancel := context.WithCancel(context.Background())
	e := &entry{
		seq:    s.seq,
		run:    Run{ID: id, Kind: kind, State: StatePending, Created: time.Now()},
		ctx:    ctx,
		cancel: cancel,
		subs:   make(map[int]chan Event),
		done:   make(chan struct{}),
	}
	s.entries[id] = e
	s.wg.Add(1)
	s.mu.Unlock()

	go s.execute(e, exec)
	return e.snapshot(), nil
}

func kindPrefix(kind string) string {
	if kind == "" {
		return "x"
	}
	return kind[:1]
}

// execute waits for a slot, runs exec, and lands the entry in its
// terminal state.
func (s *Store) execute(e *entry, exec Exec) {
	defer s.wg.Done()
	select {
	case s.sem <- struct{}{}:
	case <-e.ctx.Done():
		// Cancelled while queued: never ran.
		e.finish(nil, e.ctx.Err())
		return
	}
	defer func() { <-s.sem }()
	if e.ctx.Err() != nil {
		e.finish(nil, e.ctx.Err())
		return
	}
	e.setRunning()
	v, err := exec(e.ctx, Handle{e})
	e.finish(v, err)
}

// Get returns a snapshot of the run.
func (s *Store) Get(id string) (Run, error) {
	s.mu.Lock()
	e, ok := s.entries[id]
	s.mu.Unlock()
	if !ok {
		return Run{}, ErrNotFound
	}
	return e.snapshot(), nil
}

// List returns snapshots of every run, oldest first.
func (s *Store) List() []Run {
	s.mu.Lock()
	es := make([]*entry, 0, len(s.entries))
	for _, e := range s.entries {
		es = append(es, e)
	}
	s.mu.Unlock()
	sort.Slice(es, func(i, j int) bool { return es[i].seq < es[j].seq })
	runs := make([]Run, len(es))
	for i, e := range es {
		runs[i] = e.snapshot()
	}
	return runs
}

// Cancel aborts the run: a queued run never starts, a running one has
// its context cancelled. An in-process fleet then stops at its next
// run, and a worker process is killed through the context. Cancelling a
// finished run returns ErrFinished.
func (s *Store) Cancel(id string) (Run, error) {
	s.mu.Lock()
	e, ok := s.entries[id]
	s.mu.Unlock()
	if !ok {
		return Run{}, ErrNotFound
	}
	e.mu.Lock()
	if e.run.State.Terminal() {
		snap := e.run
		e.mu.Unlock()
		return snap, ErrFinished
	}
	e.cancelled = true
	e.mu.Unlock()
	e.cancel()
	return e.snapshot(), nil
}

// Subscribe attaches to the run's event stream. events carries
// progress events published while subscribed (lossy under backpressure,
// order-preserving); done closes when the run reaches a terminal state
// — it may already be closed for a finished run. unsubscribe releases
// the subscription and must be called.
func (s *Store) Subscribe(id string) (events <-chan Event, done <-chan struct{}, unsubscribe func(), err error) {
	s.mu.Lock()
	e, ok := s.entries[id]
	s.mu.Unlock()
	if !ok {
		return nil, nil, nil, ErrNotFound
	}
	ch := make(chan Event, subBuffer)
	e.mu.Lock()
	e.subSeq++
	n := e.subSeq
	e.subs[n] = ch
	e.mu.Unlock()
	return ch, e.done, func() {
		e.mu.Lock()
		delete(e.subs, n)
		e.mu.Unlock()
	}, nil
}

// Close stops new submissions. Safe to call more than once.
func (s *Store) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
}

// Drain closes the store and waits for every in-flight run to reach a
// terminal state. If ctx expires first, every live run is cancelled and
// Drain keeps waiting for the (now aborting) executions to land before
// returning ctx's error — the pools stop at the next run boundary, so
// the wait after cancellation is bounded by one simulation run.
func (s *Store) Drain(ctx context.Context) error {
	s.Close()
	finished := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
		return nil
	case <-ctx.Done():
	}
	s.CancelAll()
	<-finished
	return ctx.Err()
}

// CancelAll cancels every non-terminal run (shutdown past its drain
// deadline).
func (s *Store) CancelAll() {
	s.mu.Lock()
	es := make([]*entry, 0, len(s.entries))
	for _, e := range s.entries {
		es = append(es, e)
	}
	s.mu.Unlock()
	for _, e := range es {
		e.mu.Lock()
		terminal := e.run.State.Terminal()
		if !terminal {
			e.cancelled = true
		}
		e.mu.Unlock()
		if !terminal {
			e.cancel()
		}
	}
}

// Draining reports whether Close (or Drain) has been called: the store
// rejects new submissions and is waiting for in-flight work to land.
// Readiness probes key off this — a draining daemon must fail /readyz
// so load balancers stop routing to it before the listener closes.
func (s *Store) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Active counts runs not yet in a terminal state.
func (s *Store) Active() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, e := range s.entries {
		e.mu.Lock()
		if !e.run.State.Terminal() {
			n++
		}
		e.mu.Unlock()
	}
	return n
}

func (e *entry) snapshot() Run {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.run
}

func (e *entry) setRunning() {
	e.mu.Lock()
	e.run.State = StateRunning
	e.run.Started = time.Now()
	e.mu.Unlock()
	e.publish(Event{Type: "state", Data: stateData{ID: e.run.ID, State: StateRunning}})
}

// stateData is the payload of "state" and "done" events.
type stateData struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	Error string `json:"error,omitempty"`
}

// finish lands the entry in its terminal state, keeps any (possibly
// partial) result, publishes the final state event, and releases the
// done channel.
func (e *entry) finish(result any, err error) {
	e.mu.Lock()
	switch {
	case err == nil:
		e.run.State = StateDone
	case e.cancelled || errors.Is(err, context.Canceled):
		e.run.State = StateCancelled
		e.run.Error = err.Error()
	default:
		e.run.State = StateFailed
		e.run.Error = err.Error()
	}
	e.run.Finished = time.Now()
	e.run.Result = result
	snap := stateData{ID: e.run.ID, State: e.run.State, Error: e.run.Error}
	e.mu.Unlock()
	e.publish(Event{Type: "state", Data: snap})
	close(e.done)
	e.cancel() // release the context's resources
}

// publish fans one event out without blocking: a full subscriber buffer
// drops the event for that subscriber only.
func (e *entry) publish(ev Event) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, ch := range e.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}
