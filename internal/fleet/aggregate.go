package fleet

import (
	"repro/internal/backend"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Dist is the JSON snapshot of one metric's distribution across the
// fleet, read from a stats.Acc: exact moments and extremes, and
// P50/P95/P99 within 2⁻⁷ (relative) of the exact quantiles.
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

func dist(a *stats.Acc) Dist {
	return Dist{
		N:    a.N(),
		Mean: a.Mean(),
		Std:  a.Std(),
		CI95: a.CI95(),
		Min:  a.Min(),
		Max:  a.Max(),
		P50:  a.Quantile(0.50),
		P95:  a.Quantile(0.95),
		P99:  a.Quantile(0.99),
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
// Spec across worker counts, shard sizes and process counts.
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

// The per-device values a fold accumulates, each in a stats.Acc: each
// policy's, base then test, then the savings ratios and the leak flag.
// Guarantee counts and leak flags read back as exact sums.
const (
	energyMJ = iota
	standbyHours
	wakeups
	impercDelay
	aoiMean
	perceptibleLate
	graceLate
	maxPerceptibleDelay
	perPolicy
	savings  = 2 * perPolicy // total, awake, standby extension, wakeups
	leaky    = savings + 4
	nMetrics = leaky + 1
)

// fold is the mergeable state of a device range, apart from the backend
// counters and histograms ShardAggregate carries beside it.
type fold [nMetrics]stats.Acc

func (f *fold) observe(base, test *sim.Result) {
	for p, r := range [...]*sim.Result{base, test} {
		g := r.Guarantees
		for m, v := range [...]float64{r.Energy.TotalMJ(), r.StandbyHours, float64(r.FinalWakeups), r.Delays.ImperceptibleMean,
			r.AoI.MeanAgeSec, float64(g.PerceptibleLate), float64(g.GraceLate), g.MaxPerceptibleDelay} {
			f[p*perPolicy+m].Add(v)
		}
	}
	// The fleet's only fault is the sampled wakelock leak.
	cmp, leak := sim.Comparison{Base: base, Test: test}, 0.0
	if base.Config.Faults != nil {
		leak = 1
	}
	for i, v := range [...]float64{cmp.TotalSavings(), cmp.AwakeSavings(), cmp.StandbyExtension(), cmp.WakeupReduction(), leak} {
		f[savings+i].Add(v)
	}
}

// policy is policy p's summary; with a backend model it replays the
// fleet's merged arrivals through the server queue and attaches the
// folded device-side counters.
func (f *fold) policy(p int, m *backend.Model, bk *backend.DeviceStats, hist *backend.Histogram) PolicySummary {
	acc := func(metric int) *stats.Acc { return &f[p*perPolicy+metric] }
	ps := PolicySummary{
		EnergyMJ:            dist(acc(energyMJ)),
		StandbyHours:        dist(acc(standbyHours)),
		Wakeups:             dist(acc(wakeups)),
		ImperceptibleDelay:  dist(acc(impercDelay)),
		PerceptibleLate:     int(acc(perceptibleLate).Sum()),
		GraceLate:           int(acc(graceLate).Sum()),
		MaxPerceptibleDelay: acc(maxPerceptibleDelay).Max(),
		AoIMeanAge:          dist(acc(aoiMean)),
	}
	if m != nil && hist != nil {
		bs := backend.Serve(hist, *m)
		bs.Requests, bs.Shed, bs.Retries = bk.Requests, bk.Shed, bk.Retries
		bs.Redelivered, bs.Dropped, bs.Pending = bk.Redelivered, bk.Dropped, bk.Pending
		ps.Backend = &bs
	}
	return ps
}

// Aggregate is the streaming fleet aggregate: its state is the shard
// aggregate of the device prefix folded so far, so folding one device
// and merging a whole shard keep the same books.
type Aggregate struct {
	spec  Spec
	state ShardAggregate
}

// NewAggregate returns an empty aggregate for the spec, ready to fold
// devices (observe) or whole shards (MergeShard) in index order. The
// in-process runner builds one internally; the multi-process supervisor
// (internal/shardexec) builds one explicitly and merges every shard
// into it, checkpointed or freshly run.
func NewAggregate(spec Spec) *Aggregate {
	spec = spec.WithDefaults()
	a := &Aggregate{spec: spec, state: ShardAggregate{HasBackend: spec.Backend != nil}}
	if spec.Backend != nil {
		width := spec.Backend.WithDefaults().BucketWidth
		a.state.BaseHist, a.state.TestHist = backend.NewHistogram(width), backend.NewHistogram(width)
	}
	return a
}

// observe folds one device's base/test run pair into the aggregate.
func (a *Aggregate) observe(base, test *sim.Result) {
	st := &a.state
	st.fold.observe(base, test)
	if st.HasBackend && base.Backend != nil {
		st.BaseStats.Merge(base.Backend)
		st.BaseHist.Merge(base.Backend.Hist)
	}
	if st.HasBackend && test.Backend != nil {
		st.TestStats.Merge(test.Backend)
		st.TestHist.Merge(test.Backend.Hist)
	}
}

// Devices reports how many devices have been folded in.
func (a *Aggregate) Devices() int { return a.state.fold[0].N() }

// Summary snapshots the aggregate into its deterministic JSON form.
func (a *Aggregate) Summary() Summary {
	s, st, f := a.spec, &a.state, &a.state.fold
	return Summary{
		Devices:    a.Devices(),
		Seed:       s.Seed,
		Hours:      s.Hours,
		BasePolicy: s.BasePolicy,
		TestPolicy: s.TestPolicy,
		Base:       f.policy(0, s.Backend, &st.BaseStats, st.BaseHist),
		Test:       f.policy(1, s.Backend, &st.TestStats, st.TestHist),
		Savings: SavingsSummary{
			Total:            dist(&f[savings]),
			Awake:            dist(&f[savings+1]),
			StandbyExtension: dist(&f[savings+2]),
			WakeupReduction:  dist(&f[savings+3]),
		},
		LeakyDevices: int(f[leaky].Sum()),
	}
}
