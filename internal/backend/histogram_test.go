package backend

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/simclock"
)

// histOf builds the histogram holding the given bucket counts: its
// non-zero entries in ascending bucket order.
func histOf(width simclock.Duration, counts map[int64]int64) *Histogram {
	h := NewHistogram(width)
	for k, n := range counts {
		if n != 0 {
			h.Buckets = append(h.Buckets, Bucket{Index: k, Count: n})
		}
	}
	slices.SortFunc(h.Buckets, func(a, b Bucket) int { return cmp.Compare(a.Index, b.Index) })
	return h
}

// refServe replays reference counts the way Serve does, one bucket step
// at a time from the lowest key until the backlog drains past the
// highest, looking each step up in the map. It returns the counters
// Serve's walk over the bucket slice must reproduce.
func refServe(ref map[int64]int64, m Model) (arrivals, peak int64, peakAt simclock.Time, shed, maxBacklog int64, steps int) {
	m = m.WithDefaults()
	if len(ref) == 0 {
		return
	}
	lo, hi := int64(0), int64(0)
	first := true
	for b := range ref {
		if first || b < lo {
			lo = b
		}
		if first || b > hi {
			hi = b
		}
		first = false
	}
	capPerBucket := max(int64(m.Capacity*m.BucketWidth.Seconds()), 1)
	var backlog int64
	for b := lo; b <= hi || backlog > 0; b++ {
		n := ref[b]
		arrivals += n
		if n > peak {
			peak, peakAt = n, simclock.Time(b*int64(m.BucketWidth))
		}
		admitted := min(n, m.QueueLimit-backlog)
		shed += n - admitted
		backlog += admitted
		maxBacklog = max(maxBacklog, backlog)
		steps++
		backlog = max(backlog-capPerBucket, 0)
	}
	return
}

// TestHistogramMatchesMapReference drives Add and Merge with unordered
// arrivals against a map[int64]int64 reference, the representation the
// histogram once had. A run counts its arrivals in time order, so
// nothing else reaches Add's binary search and insert or a Merge that
// interleaves new buckets. The cases cover interleaved, disjoint, equal
// and negative bucket keys, a histogram merged into itself, empty sides,
// and a fold of many; in each, the buckets, Total, Serve's replay and
// the encoding must agree with the reference.
func TestHistogramMatchesMapReference(t *testing.T) {
	const width = 10 * simclock.Second
	rng := rand.New(rand.NewSource(25))
	// arrivals counts n arrivals at random instants of the buckets
	// [lo, lo+span), in random order, into a histogram and its reference.
	arrivals := func(n int, lo, span int64) (*Histogram, map[int64]int64) {
		h, ref := NewHistogram(width), map[int64]int64{}
		for i := 0; i < n; i++ {
			at := simclock.Time(lo*int64(width) + rng.Int63n(span*int64(width)))
			h.Add(at)
			ref[int64(at)/int64(width)]++
		}
		return h, ref
	}
	clone := func(h *Histogram) *Histogram {
		return &Histogram{Width: h.Width, Buckets: slices.Clone(h.Buckets)}
	}
	sum := func(refs ...map[int64]int64) map[int64]int64 {
		out := map[int64]int64{}
		for _, r := range refs {
			for k, n := range r {
				out[k] += n
			}
		}
		return out
	}
	m := Model{Capacity: 0.5, QueueLimit: 40, Seed: 3}
	agree := func(name string, h *Histogram, ref map[int64]int64) {
		t.Helper()
		want := histOf(width, ref)
		if h.Width != width || !slices.Equal(h.Buckets, want.Buckets) {
			t.Fatalf("%s: buckets %v, want %v", name, h.Buckets, want.Buckets)
		}
		var total int64
		for _, n := range ref {
			total += n
		}
		if got := h.Total(); got != total {
			t.Errorf("%s: Total() = %d, want %d", name, got, total)
		}
		s := Serve(h, m)
		arr, peak, peakAt, shed, maxBacklog, steps := refServe(ref, m)
		if s.Arrivals != arr || s.PeakArrivals != peak || s.PeakAt != peakAt || s.ServerShed != shed ||
			s.MaxBacklog != maxBacklog || s.QueueDepth.N != steps || s.QueueDepth.Max != float64(maxBacklog) {
			t.Errorf("%s: Serve = %d arrivals, peak %d at %v, %d shed, backlog %d, %d steps (max %v); reference %d, %d at %v, %d, %d, %d steps",
				name, s.Arrivals, s.PeakArrivals, s.PeakAt, s.ServerShed, s.MaxBacklog, s.QueueDepth.N, s.QueueDepth.Max,
				arr, peak, peakAt, shed, maxBacklog, steps)
		}
		// The encoding is the reference's pairs in ascending key order.
		blob := binary.LittleEndian.AppendUint64(nil, uint64(width))
		blob = binary.LittleEndian.AppendUint32(blob, uint32(len(want.Buckets)))
		for _, b := range want.Buckets {
			blob = binary.LittleEndian.AppendUint64(blob, uint64(b.Index))
			blob = binary.LittleEndian.AppendUint64(blob, uint64(b.Count))
		}
		if got := h.AppendBinary(nil); string(got) != string(blob) {
			t.Errorf("%s: encoding differs from the reference's", name)
		}
		var dec Histogram
		if err := dec.UnmarshalBinary(blob); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if dec.Width != width || !slices.Equal(dec.Buckets, want.Buckets) {
			t.Errorf("%s: decoded buckets %v, want %v", name, dec.Buckets, want.Buckets)
		}
	}

	for trial := 0; trial < 50; trial++ {
		a, refA := arrivals(1+rng.Intn(300), 0, 100)
		agree("add", a, refA)
		interleaved, refI := arrivals(1+rng.Intn(300), 0, 100)
		later, refL := arrivals(1+rng.Intn(100), 100, 50)
		earlier, refE := arrivals(1+rng.Intn(100), -80, 50)
		negative, refN := arrivals(1+rng.Intn(300), -200, 250)
		empty := NewHistogram(width)
		for _, c := range []struct {
			name string
			o    *Histogram
			ref  map[int64]int64
		}{
			{"interleaved", interleaved, refI},
			{"disjoint after", later, refL},
			{"disjoint before", earlier, refE},
			{"equal", histOf(width, refA), refA},
			{"negative", negative, refN},
			{"empty", empty, nil},
		} {
			x := clone(a)
			x.Merge(c.o)
			agree(fmt.Sprintf("trial %d: merge %s", trial, c.name), x, sum(refA, c.ref))
			y := clone(c.o)
			y.Merge(a)
			agree(fmt.Sprintf("trial %d: merge into %s", trial, c.name), y, sum(refA, c.ref))
		}
		self := clone(a)
		self.Merge(self)
		agree(fmt.Sprintf("trial %d: merge into itself", trial), self, sum(refA, refA))
		both := NewHistogram(width)
		both.Merge(NewHistogram(width))
		agree(fmt.Sprintf("trial %d: both empty", trial), both, nil)

		// A fold of many, as a fleet aggregate grows device by device.
		fold, refF := NewHistogram(width), map[int64]int64{}
		for i := 0; i < 20; i++ {
			o, ref := arrivals(rng.Intn(60), int64(rng.Intn(400)-200), int64(1+rng.Intn(100)))
			fold.Merge(o)
			refF = sum(refF, ref)
		}
		agree(fmt.Sprintf("trial %d: fold", trial), fold, refF)
	}
}
