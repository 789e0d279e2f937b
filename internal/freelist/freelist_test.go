package freelist

import "testing"

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
