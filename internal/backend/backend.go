// Package backend models the push/sync backend that a fleet of
// connected-standby devices hammers — the other edge of the alignment
// sword. Per-device alignment policies (the paper's whole subject)
// minimize device wakeups by concentrating alarm deliveries onto shared
// instants; at fleet scale those shared instants become synchronized
// request spikes at the server. This package makes that externality
// measurable:
//
//   - Model carries both sides of the co-simulation: the device resume
//     sequence (reconnect latency on wake, client-perceived shedding,
//     capped exponential retry backoff with seeded jitter, a suspend
//     guard debouncing re-doze) and the server queue (bucketed arrival
//     capacity, a bounded admission queue, a seeded service-latency
//     distribution).
//   - Histogram is the deterministic interchange format: each device run
//     buckets its request arrivals; the fleet layer merges the buckets
//     with exact integer adds, so the merged histogram — and everything
//     Serve derives from it — is byte-identical for a fixed seed
//     regardless of worker or shard count.
//   - Serve replays the merged arrivals through the server queue and
//     summarizes peak arrivals, overload shedding, queue depths, and
//     admission latencies.
//
// The coupling is one-way by design: devices carry a client-side shed
// prior (Model.ShedRate) that drives their retry pipelines, while Serve
// measures the actual overload the resulting arrival stream — retry
// amplification included — inflicts on the configured capacity. Closing
// the loop (server shedding feeding back into per-device retries) would
// make every device's trajectory depend on every other device's,
// breaking the shard-parallel determinism contract; DESIGN.md §10
// records the trade-off.
package backend

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/metrics"
	"repro/internal/simclock"
	"repro/internal/stats"
)

// Model parameterizes the backend co-simulation. The zero value of every
// field selects the documented default (withDefaults), except ShedRate:
// zero really means "never shed", which keeps the retry pipeline
// quiescent unless asked for. A Model is immutable during runs and may
// be shared across a fleet.
type Model struct {
	// ReconnectMin/ReconnectMax bound the network re-association latency
	// a device pays after every wake: drawn uniformly per wake from the
	// dedicated RNG stream seed+5, it runs as a Wi-Fi task (costing
	// energy and serializing before the wake's sync requests). Defaults
	// 200–700 ms.
	ReconnectMin simclock.Duration `json:"reconnect_min_ms,omitempty"`
	ReconnectMax simclock.Duration `json:"reconnect_max_ms,omitempty"`
	// ShedRate is the client-perceived probability that one request
	// attempt is shed by the backend (drawn per attempt from stream
	// seed+6). It is the device-side prior that exercises the retry
	// pipeline; the *measured* overload shedding comes from Serve.
	// Default 0 (off).
	ShedRate float64 `json:"shed_rate,omitempty"`
	// MaxRetries bounds the retry chain of a shed request; the request
	// is counted dropped when the last retry is shed too. Default 3.
	MaxRetries int `json:"max_retries,omitempty"`
	// RetryBase/RetryMax shape the capped exponential backoff: retry i
	// waits min(RetryBase×2^i, RetryMax), scaled by a seeded jitter of
	// ±RetryJitter. Defaults 5 s, 60 s, 0.2.
	RetryBase   simclock.Duration `json:"retry_base_ms,omitempty"`
	RetryMax    simclock.Duration `json:"retry_max_ms,omitempty"`
	RetryJitter float64           `json:"retry_jitter,omitempty"`
	// Debounce is the suspend guard: after a wake completes, the device
	// will not re-doze within this window, absorbing wake/sleep flapping
	// under retry storms. Default 3 s.
	Debounce simclock.Duration `json:"debounce_ms,omitempty"`
	// BucketWidth is the arrival-histogram resolution, wide enough to
	// absorb the stochastic wake latency (0.4–1.4 s) so that a fleet
	// aligned on one instant lands in one bucket. Default 10 s.
	BucketWidth simclock.Duration `json:"bucket_ms,omitempty"`
	// Capacity is the server's service rate in requests per second.
	// Default 100.
	Capacity float64 `json:"capacity_rps,omitempty"`
	// QueueLimit bounds the admission queue; arrivals beyond it are shed
	// server-side. Default 1000.
	QueueLimit int64 `json:"queue_limit,omitempty"`
	// ServiceMin/ServiceMax bound the per-request service latency, drawn
	// uniformly from the stream Seed. Defaults 20–200 ms.
	ServiceMin simclock.Duration `json:"service_min_ms,omitempty"`
	ServiceMax simclock.Duration `json:"service_max_ms,omitempty"`
	// Seed drives Serve's service-latency draws (a server-side stream,
	// deliberately separate from the per-device streams).
	Seed int64 `json:"seed,omitempty"`
}

// DefaultModel returns the documented defaults, explicitly.
func DefaultModel() Model { return Model{}.WithDefaults() }

// WithDefaults fills zero fields with the documented defaults.
func (m Model) WithDefaults() Model {
	if m.ReconnectMin == 0 && m.ReconnectMax == 0 {
		m.ReconnectMin = 200 * simclock.Millisecond
		m.ReconnectMax = 700 * simclock.Millisecond
	}
	if m.MaxRetries == 0 {
		m.MaxRetries = 3
	}
	if m.RetryBase == 0 {
		m.RetryBase = 5 * simclock.Second
	}
	if m.RetryMax == 0 {
		m.RetryMax = 60 * simclock.Second
	}
	if m.RetryJitter == 0 {
		m.RetryJitter = 0.2
	}
	if m.Debounce == 0 {
		m.Debounce = 3 * simclock.Second
	}
	if m.BucketWidth == 0 {
		m.BucketWidth = 10 * simclock.Second
	}
	if m.Capacity == 0 {
		m.Capacity = 100
	}
	if m.QueueLimit == 0 {
		m.QueueLimit = 1000
	}
	if m.ServiceMin == 0 && m.ServiceMax == 0 {
		m.ServiceMin = 20 * simclock.Millisecond
		m.ServiceMax = 200 * simclock.Millisecond
	}
	return m
}

// Validate checks the model after defaulting. Like the sim and fleet
// validators it is total over arbitrary JSON input.
func (m Model) Validate() error {
	m = m.WithDefaults()
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"shed rate", m.ShedRate},
		{"retry jitter", m.RetryJitter},
		{"capacity", m.Capacity},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("backend: non-finite %s %v", f.name, f.v)
		}
	}
	switch {
	case m.ReconnectMin < 0 || m.ReconnectMax < m.ReconnectMin:
		return fmt.Errorf("backend: reconnect range [%v, %v] invalid", m.ReconnectMin, m.ReconnectMax)
	case m.ShedRate < 0 || m.ShedRate >= 1:
		return fmt.Errorf("backend: shed rate %v outside [0, 1)", m.ShedRate)
	case m.MaxRetries < 0 || m.MaxRetries > 32:
		return fmt.Errorf("backend: max retries %d outside [0, 32]", m.MaxRetries)
	case m.RetryBase <= 0 || m.RetryMax < m.RetryBase:
		return fmt.Errorf("backend: retry backoff [%v, %v] invalid", m.RetryBase, m.RetryMax)
	case m.RetryJitter < 0 || m.RetryJitter >= 1:
		return fmt.Errorf("backend: retry jitter %v outside [0, 1)", m.RetryJitter)
	case m.Debounce < 0 || m.Debounce > simclock.Duration(simclock.Hour):
		return fmt.Errorf("backend: debounce %v outside [0, 1h]", m.Debounce)
	case m.BucketWidth < simclock.Second || m.BucketWidth > simclock.Duration(simclock.Hour):
		return fmt.Errorf("backend: bucket width %v outside [1s, 1h]", m.BucketWidth)
	case m.Capacity <= 0 || m.Capacity > 1e9:
		return fmt.Errorf("backend: capacity %v outside (0, 1e9] req/s", m.Capacity)
	case m.QueueLimit < 1 || m.QueueLimit > 1e12:
		return fmt.Errorf("backend: queue limit %d outside [1, 1e12]", m.QueueLimit)
	case m.ServiceMin < 0 || m.ServiceMax < m.ServiceMin:
		return fmt.Errorf("backend: service range [%v, %v] invalid", m.ServiceMin, m.ServiceMax)
	}
	return nil
}

// Histogram is a sparse per-bucket arrival count. Buckets index
// time/Width; only non-empty buckets are stored, as ascending (Index,
// Count) pairs with positive counts. That one representation serves the
// device run that counts arrivals, the fleet fold that merges them, the
// shard codec that ships them and Serve's replay, none of which sorts.
type Histogram struct {
	Width   simclock.Duration `json:"width_ms"`
	Buckets []Bucket          `json:"buckets"`
}

// Bucket is one non-empty histogram bucket: Count arrivals at instants
// t with t/Width == Index.
type Bucket struct {
	Index int64 `json:"index"`
	Count int64 `json:"count"`
}

// NewHistogram creates an empty histogram with the given bucket width.
func NewHistogram(width simclock.Duration) *Histogram {
	if width <= 0 {
		width = DefaultModel().BucketWidth
	}
	return &Histogram{Width: width}
}

// Add counts one arrival at the given instant. A run's arrivals come in
// time order, so Add appends a bucket or bumps the last one; an earlier
// instant finds or inserts its bucket by binary search.
func (h *Histogram) Add(at simclock.Time) {
	b := int64(at) / int64(h.Width)
	n := len(h.Buckets)
	switch {
	case n == 0 || h.Buckets[n-1].Index < b:
		h.Buckets = append(h.Buckets, Bucket{Index: b, Count: 1})
	case h.Buckets[n-1].Index == b:
		h.Buckets[n-1].Count++
	default:
		i, found := slices.BinarySearchFunc(h.Buckets, b, func(x Bucket, index int64) int { return cmp.Compare(x.Index, index) })
		if found {
			h.Buckets[i].Count++
		} else {
			h.Buckets = slices.Insert(h.Buckets, i, Bucket{Index: b, Count: 1})
		}
	}
}

// Merge folds o into h with exact integer adds — commutative and
// associative, so any fold order yields the same histogram. When h
// already holds every bucket of o the counts add in place; otherwise h
// grows once by the buckets it lacks and the two merge in one pass from
// the back, so a merge costs O(len(h) + len(o)) either way. Mismatched
// widths are a programming error (the model fixes one width per fleet).
func (h *Histogram) Merge(o *Histogram) {
	if o == nil {
		return
	}
	if o.Width != h.Width {
		panic(fmt.Sprintf("backend: merging histograms of width %v into %v", o.Width, h.Width))
	}
	// Count o's buckets that h lacks.
	lacks, i := 0, 0
	for _, x := range o.Buckets {
		for i < len(h.Buckets) && h.Buckets[i].Index < x.Index {
			i++
		}
		if i == len(h.Buckets) || h.Buckets[i].Index != x.Index {
			lacks++
		}
	}
	// Merge from the back: k, the slot written next, never falls below
	// i, the next of h's own buckets to move, so nothing is overwritten
	// before it is read. With nothing lacking, k == i throughout and
	// h's buckets stay where they are.
	i = len(h.Buckets) - 1
	h.Buckets = slices.Grow(h.Buckets, lacks)[:len(h.Buckets)+lacks]
	k := len(h.Buckets) - 1
	for j := len(o.Buckets) - 1; j >= 0; k-- {
		switch x := o.Buckets[j]; {
		case i >= 0 && h.Buckets[i].Index > x.Index:
			h.Buckets[k] = h.Buckets[i]
			i--
		case i >= 0 && h.Buckets[i].Index == x.Index:
			h.Buckets[k] = Bucket{Index: x.Index, Count: h.Buckets[i].Count + x.Count}
			i, j = i-1, j-1
		default:
			h.Buckets[k] = x
			j--
		}
	}
}

// Total is the number of recorded arrivals.
func (h *Histogram) Total() int64 {
	var t int64
	for _, b := range h.Buckets {
		t += b.Count
	}
	return t
}

// DeviceStats is one device run's backend-interaction counters, folded
// verbatim (integer adds) into the fleet aggregate. The retry-pipeline
// accounting invariant — checked by the property tests — is
//
//	Shed == Redelivered + Dropped + Pending
//
// every request whose first attempt was shed is eventually re-delivered,
// dropped after MaxRetries, or cut off by the horizon (Pending).
type DeviceStats struct {
	// Requests counts first-attempt sync requests (one per delivered
	// Wi-Fi alarm).
	Requests int64 `json:"requests"`
	// Shed counts requests whose first attempt was client-shed.
	Shed int64 `json:"shed"`
	// ShedAttempts counts every client-shed attempt, retries included.
	ShedAttempts int64 `json:"shed_attempts"`
	// Retries counts retry attempts that fired within the horizon.
	Retries int64 `json:"retries"`
	// Redelivered counts shed requests that eventually succeeded.
	Redelivered int64 `json:"redelivered"`
	// Dropped counts shed requests whose last permitted retry was shed.
	Dropped int64 `json:"dropped"`
	// Pending counts shed requests whose retry chain the horizon cut off.
	Pending int64 `json:"pending"`
	// Reconnects counts completed wake→network-ready sequences.
	Reconnects int64 `json:"reconnects"`
	// Hist buckets this device's request arrivals (all attempts).
	Hist *Histogram `json:"-"`
}

// merge folds o's counters into s.
func (s *DeviceStats) Merge(o *DeviceStats) {
	if o == nil {
		return
	}
	s.Requests += o.Requests
	s.Shed += o.Shed
	s.ShedAttempts += o.ShedAttempts
	s.Retries += o.Retries
	s.Redelivered += o.Redelivered
	s.Dropped += o.Dropped
	s.Pending += o.Pending
	s.Reconnects += o.Reconnects
}

// Summary is the deterministic backend-load aggregate a fleet summary
// embeds per policy: the folded device counters plus Serve's replay of
// the merged arrival histogram through the server queue. Marshalling a
// Summary is byte-identical for a fixed seed across worker counts and
// shard sizes (no maps, no wall-clock).
type Summary struct {
	// Folded device-side counters (see DeviceStats).
	Requests    int64 `json:"requests"`
	Shed        int64 `json:"shed"`
	Retries     int64 `json:"retries"`
	Redelivered int64 `json:"redelivered"`
	Dropped     int64 `json:"dropped"`
	Pending     int64 `json:"pending"`

	// Server-side replay of the merged arrival stream.
	Arrivals     int64             `json:"arrivals"`
	PeakArrivals int64             `json:"peak_arrivals"`
	PeakAt       simclock.Time     `json:"peak_at_ms"`
	BucketWidth  simclock.Duration `json:"bucket_ms"`
	ServerShed   int64             `json:"server_shed"`
	MaxBacklog   int64             `json:"max_backlog"`
	QueueDepth   metrics.LoadDist  `json:"queue_depth"`
	AdmitLatency metrics.LoadDist  `json:"admit_latency_ms"`
}

// latencySamplesPerBucket bounds Serve's admission-latency sampling: a
// bucket contributes at most this many (deterministically strided)
// samples, keeping Serve cheap enough for the fleet layer to call on
// every periodic snapshot.
const latencySamplesPerBucket = 64

// Serve replays the arrival histogram through the server queue and
// returns the server-side summary (the device-counter fields are the
// caller's to fill). The replay walks buckets in time order: each bucket
// admits arrivals up to the queue bound (the rest are shed), samples
// admission latency (queue wait at the arrival's backlog position plus a
// seeded service draw), then services Capacity×BucketWidth requests.
// Everything is a pure function of (histogram, model), so any
// deterministic histogram yields a deterministic summary.
func Serve(h *Histogram, m Model) Summary {
	m = m.WithDefaults()
	s := Summary{BucketWidth: m.BucketWidth}
	if h == nil || len(h.Buckets) == 0 {
		return s
	}
	lo, hi := h.Buckets[0].Index, h.Buckets[len(h.Buckets)-1].Index
	rng := simclock.Rand(m.Seed)
	bucketSec := m.BucketWidth.Seconds()
	capPerBucket := int64(m.Capacity * bucketSec)
	if capPerBucket < 1 {
		capPerBucket = 1
	}
	svcSpread := int64(m.ServiceMax - m.ServiceMin)
	svcMinMs := float64(m.ServiceMin) / float64(simclock.Millisecond)
	// Queues hold ≤ QueueLimit requests; one allocation sizes each range.
	var depth, lat stats.Acc
	depth.Grow(1, float64(m.QueueLimit))
	lat.Grow(svcMinMs, float64(m.QueueLimit)/m.Capacity*1000+float64(m.ServiceMax)/float64(simclock.Millisecond))
	var backlog int64
	next := 0 // the first bucket not yet replayed
	// Keep serving past the last arrival until the backlog drains.
	for b := lo; b <= hi || backlog > 0; b++ {
		var arrivals int64
		if next < len(h.Buckets) && h.Buckets[next].Index == b {
			arrivals = h.Buckets[next].Count
			next++
		}
		s.Arrivals += arrivals
		if arrivals > s.PeakArrivals {
			s.PeakArrivals = arrivals
			s.PeakAt = simclock.Time(b * int64(m.BucketWidth))
		}
		admitted := arrivals
		if room := m.QueueLimit - backlog; admitted > room {
			admitted = room
			s.ServerShed += arrivals - admitted
		}
		if admitted > 0 {
			stride := admitted/latencySamplesPerBucket + 1
			for j := int64(0); j < admitted; j += stride {
				waitMs := float64(backlog+j) / m.Capacity * 1000
				svcMs := svcMinMs
				if svcSpread > 0 {
					svcMs += float64(rng.Int63n(svcSpread+1)) / float64(simclock.Millisecond)
				}
				lat.Add(waitMs + svcMs)
			}
		}
		backlog += admitted
		if backlog > s.MaxBacklog {
			s.MaxBacklog = backlog
		}
		depth.Add(float64(backlog))
		if served := capPerBucket; served >= backlog {
			backlog = 0
		} else {
			backlog -= served
		}
	}
	dists := [...]*metrics.LoadDist{&s.QueueDepth, &s.AdmitLatency}
	for i, a := range [...]*stats.Acc{&depth, &lat} {
		*dists[i] = metrics.LoadDist{N: a.N(), Mean: a.Mean(), Max: a.Max(),
			P50: a.Quantile(0.50), P95: a.Quantile(0.95), P99: a.Quantile(0.99)}
	}
	return s
}
