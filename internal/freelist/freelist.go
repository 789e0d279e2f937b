// Package freelist is the LIFO free list the simulator's layers recycle
// their per-event objects through: clock events, device tasks, alarm
// queue entries and backend retries. A list grows to its owner's peak
// number of live objects and no further, so a run's allocations for
// these objects are bounded by its concurrency, not its event count.
//
// A List is not safe for concurrent use; each belongs to one simulation.
package freelist

// List holds recycled *T objects. The zero value is an empty list.
type List[T any] struct {
	free []*T
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
