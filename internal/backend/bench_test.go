package backend

import (
	"testing"

	"repro/internal/simclock"
)

// benchHist builds a deterministic dense histogram: a 3-hour fleet run's
// merged arrivals at 10 s resolution with a few coincidence spikes.
func benchHist() *Histogram {
	h := NewHistogram(10 * simclock.Second)
	for b := int64(0); b < 1080; b++ {
		h.Buckets = append(h.Buckets, Bucket{Index: b, Count: 20 + 480*boolTo64(b%180 == 0)})
	}
	return h
}

func boolTo64(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func BenchmarkBackendHistogramAdd(b *testing.B) {
	h := NewHistogram(10 * simclock.Second)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// Cycle through a 3-hour span so the histogram stays at its
		// steady 1,080 buckets. From the second pass on, an arrival lands
		// before the last bucket and finds its bucket by binary search:
		// the out-of-order path, not the append or bump-last a run's
		// in-order arrivals take.
		h.Add(simclock.Time(int64(i%10800) * int64(simclock.Second)))
	}
}

func BenchmarkBackendHistogramMerge(b *testing.B) {
	src := benchHist()
	dst := NewHistogram(10 * simclock.Second)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst.Merge(src)
	}
}

func BenchmarkBackendServe(b *testing.B) {
	h := benchHist()
	m := Model{Capacity: 50, QueueLimit: 400, Seed: 7}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Serve(h, m)
	}
}
