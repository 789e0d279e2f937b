// Package freelist is the LIFO free list the simulator's layers recycle
// their per-event objects through: clock events, device tasks, alarm
// queue entries and backend retries. A list grows to its owner's peak
// number of live objects and no further, so a run's allocations for
// these objects are bounded by its concurrency, not its event count.
//
// A List is not safe for concurrent use; each belongs to one simulation.
// What simulations share, whole run environments and the sources
// simclock.Draw lends out, goes through a Locked list.
package freelist

import "sync"

// List holds recycled *T objects. The zero value is an empty list.
type List[T any] struct {
	free []*T
	// made is every object registered with Made, in order.
	made []*T
}

// Get removes and returns the most recently put object, or returns nil
// when the list is empty: the caller then allocates and initialises a
// fresh one.
func (l *List[T]) Get() *T {
	n := len(l.free)
	if n == 0 {
		return nil
	}
	x := l.free[n-1]
	l.free[n-1] = nil
	l.free = l.free[:n-1]
	return x
}

// Put hands x back for reuse. The caller must hold no other live
// reference to it.
func (l *List[T]) Put(x *T) {
	l.free = append(l.free, x)
}

// Made registers x, a fresh object the caller allocated because Get
// returned nil, so that Reclaim can hand it out again.
func (l *List[T]) Made(x *T) {
	l.made = append(l.made, x)
}

// Reclaim puts back every object registered with Made, whether it was
// free or still live, and Get then hands them out in the order they
// were made. A simulation that repeats the previous one's Gets and Puts
// therefore gets each object back in the role it had, with whatever
// capacity it grew there. The caller must drop every live reference
// first, including the clock events that would run a live object's
// callbacks.
func (l *List[T]) Reclaim() {
	clear(l.free)
	l.free = l.free[:0]
	for i := len(l.made) - 1; i >= 0; i-- {
		l.free = append(l.free, l.made[i])
	}
}

// Locked is a List guarded by a mutex, safe for concurrent use. It has
// no cap: it holds as many objects as its callers ever held at once, and
// keeps them for good, so a caller that puts its object back gets the
// same one on its next Get, whatever collections ran in between. The
// zero value is an empty list.
type Locked[T any] struct {
	mu sync.Mutex
	l  List[T]
}

// Get is List.Get under the lock.
func (l *Locked[T]) Get() *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.l.Get()
}

// Put is List.Put under the lock.
func (l *Locked[T]) Put(x *T) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.l.Put(x)
}
