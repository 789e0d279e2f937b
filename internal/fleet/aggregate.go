package fleet

import (
	"repro/internal/backend"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Dist is the JSON snapshot of one metric's distribution across the
// fleet: Welford moments plus P² quantile estimates. At fleet scale the
// per-device values are never retained, so P50/P95/P99 are streaming
// estimates (exact for populations of five or fewer).
type Dist struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	Std  float64 `json:"std"`
	CI95 float64 `json:"ci95"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
}

// acc is the streaming accumulator behind one Dist: O(1) space per
// metric regardless of fleet size.
type acc struct {
	w             stats.Welford
	p50, p95, p99 stats.P2Quantile
}

func newAcc() *acc {
	return &acc{
		p50: stats.NewP2Quantile(0.50),
		p95: stats.NewP2Quantile(0.95),
		p99: stats.NewP2Quantile(0.99),
	}
}

func (a *acc) add(x float64) {
	a.w.Add(x)
	a.p50.Add(x)
	a.p95.Add(x)
	a.p99.Add(x)
}

func (a *acc) dist() Dist {
	return Dist{
		N:    a.w.N(),
		Mean: a.w.Mean(),
		Std:  a.w.Std(),
		CI95: a.w.CI95(),
		Min:  a.w.Min(),
		Max:  a.w.Max(),
		P50:  a.p50.Value(),
		P95:  a.p95.Value(),
		P99:  a.p99.Value(),
	}
}

// PolicySummary is the JSON snapshot of one policy's behaviour across
// the fleet.
type PolicySummary struct {
	EnergyMJ     Dist `json:"energy_mj"`
	StandbyHours Dist `json:"standby_h"`
	Wakeups      Dist `json:"wakeups"`
	// ImperceptibleDelay is the distribution of per-device mean
	// normalized imperceptible delays (app alarms only, Figure 4's
	// population).
	ImperceptibleDelay Dist `json:"imperceptible_delay"`
	// PerceptibleLate counts perceptible deliveries past their window
	// end across the whole fleet — the paper's headline guarantee says
	// this must be 0 for SIMTY and NATIVE.
	PerceptibleLate int `json:"perceptible_late"`
	// GraceLate counts wakeup deliveries past their grace end.
	GraceLate int `json:"grace_late"`
	// MaxPerceptibleDelay is the largest normalized perceptible delay
	// observed anywhere in the fleet.
	MaxPerceptibleDelay float64 `json:"max_perceptible_delay"`
	// AoIMeanAge is the distribution of per-device time-average
	// Age-of-Information (seconds) over app alarms — the freshness side
	// of the energy/staleness trade the tournament ranks.
	AoIMeanAge Dist `json:"aoi_mean_age_s"`
	// Backend is the backend-load aggregate under this policy: the
	// folded retry-pipeline counters plus the server-queue replay of the
	// fleet's merged request arrivals. Nil — and absent from the JSON —
	// when the spec carries no backend model, so pre-backend summaries
	// hash unchanged.
	Backend *backend.Summary `json:"backend,omitempty"`
}

// SavingsSummary is the JSON snapshot of the per-device base-vs-test
// comparison distributions (fractions, not percent).
type SavingsSummary struct {
	Total            Dist `json:"total"`
	Awake            Dist `json:"awake"`
	StandbyExtension Dist `json:"standby_extension"`
	WakeupReduction  Dist `json:"wakeup_reduction"`
}

// Summary is the full deterministic JSON aggregate of a fleet run. It
// deliberately excludes wall-clock time and anything else that varies
// between repeats: marshalling a Summary is byte-identical for a fixed
// Spec across worker counts and shard sizes.
type Summary struct {
	Devices    int            `json:"devices"`
	Seed       int64          `json:"seed"`
	Hours      float64        `json:"hours"`
	BasePolicy string         `json:"base_policy"`
	TestPolicy string         `json:"test_policy"`
	Base       PolicySummary  `json:"base"`
	Test       PolicySummary  `json:"test"`
	Savings    SavingsSummary `json:"savings"`
	// LeakyDevices counts devices that carried an injected wakelock
	// leak.
	LeakyDevices int `json:"leaky_devices,omitempty"`
}

// policyAcc accumulates one policy's metrics.
type policyAcc struct {
	energy, standby, wakeups, imperc, aoi *acc
	perceptibleLate, graceLate            int
	maxPerceptibleDelay                   float64
	// bk folds the per-run backend counters; hist merges the per-run
	// arrival histograms (exact integer adds, so any fold order agrees).
	// Both stay nil while the spec carries no backend model.
	bk   backend.DeviceStats
	hist *backend.Histogram
}

func newPolicyAcc(m *backend.Model) *policyAcc {
	p := &policyAcc{energy: newAcc(), standby: newAcc(), wakeups: newAcc(), imperc: newAcc(), aoi: newAcc()}
	if m != nil {
		p.hist = backend.NewHistogram(m.WithDefaults().BucketWidth)
	}
	return p
}

// observeObs folds one device's extracted observation row into the
// policy's accumulators. Every float here was computed by makePolicyObs
// — in this process or in a shard-worker process — so folding a row is
// bit-identical to folding the run it came from. The guarantee counters
// fold the run's streamed Guarantees rather than re-scanning its
// Records, so runs executed in the NoTrace fast mode (no Records at
// all) aggregate identically: sums of per-run counts and the max of
// per-run maxima equal the record-level scan exactly.
func (p *policyAcc) observeObs(o PolicyObs) {
	p.energy.add(o.EnergyMJ)
	p.standby.add(o.StandbyHours)
	p.wakeups.add(o.Wakeups)
	p.imperc.add(o.ImperceptibleDelay)
	p.aoi.add(o.AoIMean)
	p.perceptibleLate += o.PerceptibleLate
	p.graceLate += o.GraceLate
	if o.MaxPerceptibleDelay > p.maxPerceptibleDelay {
		p.maxPerceptibleDelay = o.MaxPerceptibleDelay
	}
}

// observeBackend folds one run's backend counters and arrival histogram.
// Both folds are commutative, associative integer adds, so shard-level
// pre-folds (ShardAggregate) merge to the same result as per-run folds.
func (p *policyAcc) observeBackend(b *backend.DeviceStats) {
	if p.hist != nil && b != nil {
		p.bk.Merge(b)
		p.hist.Merge(b.Hist)
	}
}

// mergeBackend folds a shard-level backend pre-fold.
func (p *policyAcc) mergeBackend(stats backend.DeviceStats, hist *backend.Histogram) {
	if p.hist != nil && hist != nil {
		p.bk.Merge(&stats)
		p.hist.Merge(hist)
	}
}

func (p *policyAcc) summary(m *backend.Model) PolicySummary {
	ps := PolicySummary{
		EnergyMJ:            p.energy.dist(),
		StandbyHours:        p.standby.dist(),
		Wakeups:             p.wakeups.dist(),
		ImperceptibleDelay:  p.imperc.dist(),
		PerceptibleLate:     p.perceptibleLate,
		GraceLate:           p.graceLate,
		MaxPerceptibleDelay: p.maxPerceptibleDelay,
		AoIMeanAge:          p.aoi.dist(),
	}
	if m != nil && p.hist != nil {
		// Replay the fleet's merged arrivals through the server queue,
		// then attach the folded device-side counters.
		bs := backend.Serve(p.hist, *m)
		bs.Requests = p.bk.Requests
		bs.Shed = p.bk.Shed
		bs.Retries = p.bk.Retries
		bs.Redelivered = p.bk.Redelivered
		bs.Dropped = p.bk.Dropped
		bs.Pending = p.bk.Pending
		ps.Backend = &bs
	}
	return ps
}

// Aggregate is the streaming fleet aggregate: O(1) space in the number
// of devices. Devices must be folded in index order (the runner
// guarantees this) for the byte-identical-JSON contract to hold.
type Aggregate struct {
	spec                          Spec
	devices, leaky                int
	base, test                    *policyAcc
	total, awake, standby, wakeup *acc
}

// NewAggregate returns an empty aggregate for the spec, ready to fold
// devices (observe) or whole shards (MergeShard) in index order. The
// in-process runner builds one internally; the multi-process supervisor
// (internal/shardexec) builds one explicitly and merges every shard
// into it, checkpointed or freshly run.
func NewAggregate(spec Spec) *Aggregate {
	spec = spec.WithDefaults()
	return &Aggregate{
		spec: spec,
		base: newPolicyAcc(spec.Backend), test: newPolicyAcc(spec.Backend),
		total: newAcc(), awake: newAcc(), standby: newAcc(), wakeup: newAcc(),
	}
}

// observe folds one device's base/test run pair into the aggregate. It
// routes through the same Obs extraction the shard workers use, so the
// in-process and multi-process paths fold bit-identical values.
func (a *Aggregate) observe(d Device, base, test *sim.Result) {
	a.observeObs(makeObs(d, base, test))
	a.base.observeBackend(base.Backend)
	a.test.observeBackend(test.Backend)
}

// observeObs folds one device's extracted observation row.
func (a *Aggregate) observeObs(o Obs) {
	a.devices++
	if o.Leaky {
		a.leaky++
	}
	a.base.observeObs(o.Base)
	a.test.observeObs(o.Test)
	a.total.add(o.Total)
	a.awake.add(o.Awake)
	a.standby.add(o.Standby)
	a.wakeup.add(o.Wakeup)
}

// Devices reports how many devices have been folded in.
func (a *Aggregate) Devices() int { return a.devices }

// Summary snapshots the aggregate into its deterministic JSON form.
func (a *Aggregate) Summary() Summary {
	s := a.spec.WithDefaults()
	return Summary{
		Devices:    a.devices,
		Seed:       s.Seed,
		Hours:      s.Hours,
		BasePolicy: s.BasePolicy,
		TestPolicy: s.TestPolicy,
		Base:       a.base.summary(s.Backend),
		Test:       a.test.summary(s.Backend),
		Savings: SavingsSummary{
			Total:            a.total.dist(),
			Awake:            a.awake.dist(),
			StandbyExtension: a.standby.dist(),
			WakeupReduction:  a.wakeup.dist(),
		},
		LeakyDevices: a.leaky,
	}
}
