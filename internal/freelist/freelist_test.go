package freelist

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestListIsLIFO(t *testing.T) {
	var l List[int]
	if l.Get() != nil {
		t.Fatal("empty list returned an object")
	}
	a, b := new(int), new(int)
	l.Put(a)
	l.Put(b)
	if got := l.Get(); got != b {
		t.Fatal("Get did not return the last object put")
	}
	if got := l.Get(); got != a {
		t.Fatal("Get did not return the first object put")
	}
	if l.Get() != nil {
		t.Fatal("drained list returned an object")
	}
}

// TestListSteadyStateAllocatesNothing: once the list has held its peak,
// a get/put cycle reuses its array.
func TestListSteadyStateAllocatesNothing(t *testing.T) {
	var l List[int]
	x := new(int)
	l.Put(x)
	if n := testing.AllocsPerRun(100, func() { l.Put(l.Get()) }); n != 0 {
		t.Fatalf("get/put cycle allocates %v objects, want 0", n)
	}
}

// TestReclaimReturnsEveryObjectInOrderMade: Reclaim puts back free and
// live objects alike, each once, and Get hands them out in the order
// they were made.
func TestReclaimReturnsEveryObjectInOrderMade(t *testing.T) {
	var l List[int]
	objs := []*int{new(int), new(int), new(int)}
	for _, x := range objs {
		l.Made(x)
	}
	l.Put(objs[1]) // objs[0] and objs[2] are still live
	l.Reclaim()
	for i, want := range objs {
		if l.Get() != want {
			t.Fatalf("Get %d did not return the object made %d", i, i)
		}
	}
	if l.Get() != nil {
		t.Fatal("Reclaim put an object back twice")
	}
}

// TestLockedHandsEachObjectToOneCaller: goroutines that get an object,
// or make one when the list is empty, and put it back never share one,
// and the list ends holding every object made, at most one per
// goroutine. A lone caller then gets the last object put.
func TestLockedHandsEachObjectToOneCaller(t *testing.T) {
	const goroutines, rounds = 4, 1000
	var l Locked[int]
	var wg sync.WaitGroup
	var made atomic.Int64
	for g := 1; g <= goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				x := l.Get()
				if x == nil {
					x = new(int)
					made.Add(1)
				}
				*x = g
				runtime.Gosched()
				if *x != g {
					t.Error("two callers hold one object")
					return
				}
				l.Put(x)
			}
		}()
	}
	wg.Wait()
	seen := map[*int]bool{}
	for x := l.Get(); x != nil; x = l.Get() {
		if seen[x] {
			t.Fatal("the list holds an object twice")
		}
		seen[x] = true
	}
	if n := made.Load(); int64(len(seen)) != n || n > goroutines {
		t.Fatalf("%d objects made, %d on the list, want equal and at most %d", n, len(seen), goroutines)
	}
	x := new(int)
	l.Put(new(int))
	l.Put(x)
	if l.Get() != x {
		t.Fatal("Get did not return the last object put")
	}
}
