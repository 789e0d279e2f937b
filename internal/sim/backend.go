package sim

import (
	"math/rand"

	"repro/internal/alarm"
	"repro/internal/backend"
	"repro/internal/device"
	"repro/internal/freelist"
	"repro/internal/hw"
	"repro/internal/simclock"
)

// retryTaskDur is the Wi-Fi burst one retry attempt costs, matching the
// short sync a shed delivery repeats (the same scale as a GCM push).
const retryTaskDur = simclock.Second

// backendClient is the device-side half of the backend co-simulation:
// it watches the run's delivery stream, turns every Wi-Fi delivery into
// a backend request, and simulates the resume sequence around it —
// reconnect latency after each wake, client-perceived shedding, and the
// capped-backoff retry pipeline. It draws from two dedicated RNG
// streams (seed+5 reconnect, seed+6 shed/jitter), so a run with the
// backend model off consumes exactly the streams it always did and the
// golden parity tests hold byte for byte.
type backendClient struct {
	model backend.Model // defaults applied
	clock *simclock.Clock
	dev   *device.Device
	recon *rand.Rand // seed+5: reconnect latency
	shed  *rand.Rand // seed+6: shed draws and retry jitter

	// netReady is when the current wake session's network comes up;
	// requests delivered before it queue until reconnect completes.
	netReady simclock.Time

	stats backend.DeviceStats
	// hist counts the run's arrivals into a bucket buffer the client
	// keeps across runs; finish copies it out for the Result.
	hist backend.Histogram

	// freeRetries pools retry objects whose attempt has run, and reset
	// every retry made. onWakeFn is onWake, bound once.
	freeRetries freelist.List[retry]
	onWakeFn    func()

	// onAttempt, when set (tests), observes every attempt: the arrival
	// instant after reconnect gating, the attempt index (0 = first), and
	// whether the attempt was shed.
	onAttempt func(at simclock.Time, attempt int, shed bool)
}

// reset wires the client against the device for a new run, keeping its
// retry pool and its two sources (reseeded). Retries still in flight
// from an earlier run go back to the pool, so the clock and the device
// must be reset first: none of their events or wake callbacks may fire
// again. The stats and the histogram start over, the histogram on its
// kept bucket buffer. The caller must reset the client *before* the
// alarm manager, so that its wake hook arms reconnect state before the
// manager's wake-flush deliveries are observed.
func (c *backendClient) reset(clock *simclock.Clock, dev *device.Device, m backend.Model, seed int64) {
	c.freeRetries.Reclaim()
	c.model = m.WithDefaults()
	c.clock, c.dev = clock, dev
	c.recon = simclock.Reseed(c.recon, seed+5)
	c.shed = simclock.Reseed(c.shed, seed+6)
	c.netReady = 0
	c.stats = backend.DeviceStats{}
	c.hist = backend.Histogram{Width: c.model.BucketWidth, Buckets: c.hist.Buckets[:0]}
	c.onAttempt = nil
	if c.onWakeFn == nil {
		c.onWakeFn = c.onWake
	}
	dev.OnWake(c.onWakeFn)
	dev.SetDebounce(c.model.Debounce)
}

// onWake runs after every completed sleep→awake transition: the device
// re-associates with the network, paying the reconnect latency as a
// Wi-Fi task (energy plus serialization — sync tasks issued during the
// wake queue behind it on the Wi-Fi component).
func (c *backendClient) onWake() {
	lat := c.model.ReconnectMin
	if spread := int64(c.model.ReconnectMax - c.model.ReconnectMin); spread > 0 {
		lat += simclock.Duration(c.recon.Int63n(spread + 1))
	}
	c.stats.Reconnects++
	c.netReady = c.clock.Now().Add(lat)
	if lat > 0 {
		c.dev.RunTaskTagged("net-reconnect", hw.MakeSet(hw.WiFi), lat)
	}
}

// observeRecord taps the run's delivery stream: every delivered alarm
// that wakelocks Wi-Fi issues one backend request.
func (c *backendClient) observeRecord(r alarm.Record) {
	if !r.HW.Contains(hw.WiFi) {
		return
	}
	c.request(r.Delivered, 0)
}

// request issues attempt number attempt (0 = first) of one backend
// request, delivered to the device at `at`. The arrival instant the
// backend sees is gated on the wake session's reconnect completion. A
// shed attempt schedules the next retry at a capped exponential backoff
// with seeded jitter; the chain ends in redelivery, a drop after
// MaxRetries, or silently at the horizon (counted Pending at the end).
func (c *backendClient) request(at simclock.Time, attempt int) {
	if at < c.netReady {
		at = c.netReady
	}
	c.hist.Add(at)
	if attempt == 0 {
		c.stats.Requests++
	} else {
		c.stats.Retries++
	}
	shed := c.model.ShedRate > 0 && c.shed.Float64() < c.model.ShedRate
	if c.onAttempt != nil {
		c.onAttempt(at, attempt, shed)
	}
	if !shed {
		if attempt > 0 {
			c.stats.Redelivered++
		}
		return
	}
	c.stats.ShedAttempts++
	if attempt == 0 {
		c.stats.Shed++
	}
	if attempt >= c.model.MaxRetries {
		c.stats.Dropped++
		return
	}
	r := c.newRetry(attempt + 1)
	c.clock.Schedule(at.Add(c.backoff(attempt)), r.fireFn)
}

// retry is one scheduled retry attempt: at its backoff instant it wakes
// the device and re-issues the request. Retries are pooled per client and
// their callbacks bound once, so a retry chain allocates nothing per
// attempt once the pool covers the run's peak of in-flight retries.
type retry struct {
	c              *backendClient
	attempt        int
	fireFn, wakeFn func()
}

func (r *retry) fire() { r.c.dev.ExecuteWake(r.wakeFn) }

// wake runs the retry once the device is up. The retry pays its own short
// sync burst; its arrival gates on this wake's reconnect like any other
// request. The retry object is back in the pool before the request, which
// may schedule the next retry of the chain.
func (r *retry) wake() {
	c, attempt := r.c, r.attempt
	c.freeRetries.Put(r)
	c.dev.RunTaskTagged("retry-sync", hw.MakeSet(hw.WiFi), retryTaskDur)
	c.request(c.clock.Now(), attempt)
}

// newRetry takes a retry from the pool, or allocates one and binds its
// callbacks.
func (c *backendClient) newRetry(attempt int) *retry {
	r := c.freeRetries.Get()
	if r == nil {
		r = &retry{c: c}
		r.fireFn, r.wakeFn = r.fire, r.wake
		c.freeRetries.Made(r)
	}
	r.attempt = attempt
	return r
}

// backoff computes the wait before retry attempt+1:
// min(RetryBase×2^attempt, RetryMax) scaled by a uniform ±RetryJitter
// draw from the dedicated stream.
func (c *backendClient) backoff(attempt int) simclock.Duration {
	d := c.model.RetryBase
	for i := 0; i < attempt && d < c.model.RetryMax; i++ {
		d *= 2
	}
	if d > c.model.RetryMax {
		d = c.model.RetryMax
	}
	if j := c.model.RetryJitter; j > 0 {
		d = simclock.Duration(float64(d) * (1 + j*(2*c.shed.Float64()-1)))
	}
	if d < simclock.Millisecond {
		d = simclock.Millisecond
	}
	return d
}

// finish closes the accounting once the horizon is reached: retry
// chains whose next attempt never fired are pending, never lost. The
// Result owns what it returns, never the buffer the next run counts
// into: the stats and the histogram header in one allocation, and a
// copy of the buckets. into, when non-nil, is an earlier run's stats
// (env.result): finish then writes over them and their histogram, and
// copies the buckets into their array, which grows as append grows it
// when this run has more buckets than it holds.
func (c *backendClient) finish(into *backend.DeviceStats) *backend.DeviceStats {
	c.stats.Pending = c.stats.Shed - c.stats.Redelivered - c.stats.Dropped
	var hist *backend.Histogram
	if into == nil {
		out := &struct {
			stats backend.DeviceStats
			hist  backend.Histogram
		}{}
		into, hist = &out.stats, &out.hist
	} else {
		hist = into.Hist
	}
	buckets := hist.Buckets[:0]
	*into = c.stats
	*hist = backend.Histogram{Width: c.hist.Width}
	// A run without arrivals has nil buckets, as a fresh copy does.
	if len(c.hist.Buckets) > 0 {
		hist.Buckets = append(buckets, c.hist.Buckets...)
	}
	into.Hist = hist
	return into
}
