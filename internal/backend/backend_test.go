package backend

import (
	"reflect"
	"testing"

	"repro/internal/simclock"
)

func TestModelValidate(t *testing.T) {
	cases := []struct {
		name string
		m    Model
		ok   bool
	}{
		{"zero value (all defaults)", Model{}, true},
		{"explicit defaults", DefaultModel(), true},
		{"shed rate one", Model{ShedRate: 1}, false},
		{"negative shed rate", Model{ShedRate: -0.1}, false},
		{"nan capacity", Model{Capacity: nan()}, false},
		{"reconnect max below min", Model{ReconnectMin: 2 * simclock.Second, ReconnectMax: simclock.Second}, false},
		{"too many retries", Model{MaxRetries: 33}, false},
		{"retry max below base", Model{RetryBase: 30 * simclock.Second, RetryMax: simclock.Second}, false},
		{"retry jitter one", Model{RetryJitter: 1}, false},
		{"sub-second bucket", Model{BucketWidth: 500 * simclock.Millisecond}, false},
		{"negative capacity", Model{Capacity: -1}, false},
		{"negative queue limit", Model{QueueLimit: -5}, false},
		{"service max below min", Model{ServiceMin: simclock.Second, ServiceMax: simclock.Millisecond}, false},
	}
	for _, c := range cases {
		if err := c.m.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func nan() float64 {
	var zero float64
	return zero / zero
}

func TestHistogramAddAndTotal(t *testing.T) {
	h := NewHistogram(10 * simclock.Second)
	h.Add(0)
	h.Add(simclock.Time(9 * simclock.Second))
	h.Add(simclock.Time(10 * simclock.Second))
	h.Add(simclock.Time(25 * simclock.Second))
	if got := h.Total(); got != 4 {
		t.Fatalf("Total() = %d, want 4", got)
	}
	want := []Bucket{{0, 2}, {1, 1}, {2, 1}}
	if !reflect.DeepEqual(h.Buckets, want) {
		t.Fatalf("Buckets = %v, want %v", h.Buckets, want)
	}
}

func TestHistogramMerge(t *testing.T) {
	a := NewHistogram(10 * simclock.Second)
	a.Add(simclock.Time(5 * simclock.Second))
	b := NewHistogram(10 * simclock.Second)
	b.Add(simclock.Time(5 * simclock.Second))
	b.Add(simclock.Time(15 * simclock.Second))
	a.Merge(b)
	a.Merge(nil) // no-op
	want := []Bucket{{0, 2}, {1, 1}}
	if !reflect.DeepEqual(a.Buckets, want) {
		t.Fatalf("merged Buckets = %v, want %v", a.Buckets, want)
	}
}

func TestHistogramMergeWidthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("merging mismatched widths did not panic")
		}
	}()
	NewHistogram(10 * simclock.Second).Merge(NewHistogram(20 * simclock.Second))
}

func TestNewHistogramDefaultsWidth(t *testing.T) {
	if w := NewHistogram(0).Width; w != DefaultModel().BucketWidth {
		t.Fatalf("zero-width histogram got width %v, want default %v", w, DefaultModel().BucketWidth)
	}
}

// herdHist builds a deterministic arrival stream with one hot bucket.
func herdHist() *Histogram {
	h := NewHistogram(10 * simclock.Second)
	for i := 0; i < 500; i++ {
		h.Add(simclock.Time(60 * int64(simclock.Second))) // the spike
	}
	for i := 0; i < 40; i++ {
		h.Add(simclock.Time(int64(i) * 10 * int64(simclock.Second)))
	}
	return h
}

func TestServeDeterministic(t *testing.T) {
	m := Model{Capacity: 20, QueueLimit: 300, Seed: 7}
	a, b := Serve(herdHist(), m), Serve(herdHist(), m)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("Serve not deterministic:\n%+v\n%+v", a, b)
	}
}

func TestServeShedsAboveQueueLimit(t *testing.T) {
	h := NewHistogram(10 * simclock.Second)
	for i := 0; i < 150; i++ {
		h.Add(0)
	}
	s := Serve(h, Model{QueueLimit: 100, Capacity: 1})
	if s.ServerShed != 50 {
		t.Errorf("ServerShed = %d, want 50", s.ServerShed)
	}
	if s.MaxBacklog != 100 {
		t.Errorf("MaxBacklog = %d, want 100", s.MaxBacklog)
	}
	if s.Arrivals != 150 {
		t.Errorf("Arrivals = %d, want 150", s.Arrivals)
	}
}

func TestServeDrainsBacklogPastLastArrival(t *testing.T) {
	h := NewHistogram(10 * simclock.Second)
	for i := 0; i < 100; i++ {
		h.Add(0)
	}
	// 1 req/s over 10 s buckets serves 10 per bucket: a 100-request
	// spike needs 10 bucket steps to drain, all after the last arrival.
	s := Serve(h, Model{Capacity: 1})
	if s.QueueDepth.N != 10 {
		t.Errorf("QueueDepth.N = %d, want 10 drain steps", s.QueueDepth.N)
	}
	if s.QueueDepth.Max != 100 {
		t.Errorf("QueueDepth.Max = %v, want 100", s.QueueDepth.Max)
	}
	if s.PeakArrivals != 100 || s.PeakAt != 0 {
		t.Errorf("peak = %d at %v, want 100 at 0", s.PeakArrivals, s.PeakAt)
	}
}

func TestServePeakKeepsEarliestArgmax(t *testing.T) {
	h := NewHistogram(10 * simclock.Second)
	for i := 0; i < 5; i++ {
		h.Add(simclock.Time(10 * simclock.Second))
		h.Add(simclock.Time(30 * simclock.Second))
	}
	s := Serve(h, Model{})
	if s.PeakArrivals != 5 || s.PeakAt != simclock.Time(10*simclock.Second) {
		t.Fatalf("peak = %d at %v, want 5 at 10s", s.PeakArrivals, s.PeakAt)
	}
}

func TestServeEmpty(t *testing.T) {
	for _, h := range []*Histogram{nil, NewHistogram(10 * simclock.Second)} {
		s := Serve(h, Model{})
		if s.Arrivals != 0 || s.PeakArrivals != 0 || s.ServerShed != 0 {
			t.Errorf("empty Serve = %+v, want zero counters", s)
		}
		if s.BucketWidth != DefaultModel().BucketWidth {
			t.Errorf("empty Serve bucket width = %v, want default", s.BucketWidth)
		}
	}
}

func TestDeviceStatsMerge(t *testing.T) {
	a := DeviceStats{Requests: 1, Shed: 2, ShedAttempts: 3, Retries: 4, Redelivered: 5, Dropped: 6, Pending: 7, Reconnects: 8}
	b := a
	a.Merge(&b)
	a.Merge(nil)
	want := DeviceStats{Requests: 2, Shed: 4, ShedAttempts: 6, Retries: 8, Redelivered: 10, Dropped: 12, Pending: 14, Reconnects: 16}
	if a != want {
		t.Fatalf("Merge = %+v, want %+v", a, want)
	}
}
