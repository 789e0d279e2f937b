package fleet

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"

	"repro/internal/backend"
	"repro/internal/sim"
)

// This file is the fleet layer's multi-process seam. A fleet summary
// must be byte-identical across process counts, but the streaming
// estimators behind it (Welford, P²) are order-dependent folds whose
// states cannot be merged exactly — merging two P² marker sets is an
// approximation, and even Welford's pairwise merge reassociates the
// floating-point arithmetic. So shards do not ship estimator states.
// They ship the per-device observation rows (Obs): the exact float64s
// the aggregate would have folded, plus the shard-level pre-folds that
// ARE exactly mergeable (the backend's integer counters and arrival
// histograms). The supervisor replays rows in device order, which makes
// the merged aggregate bit-identical to a single-process fleet.Run —
// O(devices) bytes on the wire, O(1) memory in the fold, exactness by
// construction instead of by numerical accident.

// PolicyObs is one device run's contribution to a policy's
// distributions: the exact values policyAcc folds, extracted from the
// *sim.Result in the process that ran it.
type PolicyObs struct {
	EnergyMJ            float64
	StandbyHours        float64
	Wakeups             float64
	ImperceptibleDelay  float64
	PerceptibleLate     int
	GraceLate           int
	MaxPerceptibleDelay float64
	// AoIMean is the run's time-average Age-of-Information across the
	// device's app alarms, in seconds.
	AoIMean float64
}

// Obs is one device's complete contribution to the fleet aggregate: the
// base and test policy rows plus the base-vs-test comparison ratios
// (computed where the full Results are in scope) and the leak flag.
type Obs struct {
	Leaky      bool
	Base, Test PolicyObs
	// Total, Awake, Standby, Wakeup are the sim.Comparison savings
	// ratios for this device.
	Total, Awake, Standby, Wakeup float64
}

func makePolicyObs(r *sim.Result) PolicyObs {
	g := r.Guarantees
	return PolicyObs{
		EnergyMJ:            r.Energy.TotalMJ(),
		StandbyHours:        r.StandbyHours,
		Wakeups:             float64(r.FinalWakeups),
		ImperceptibleDelay:  r.Delays.ImperceptibleMean,
		PerceptibleLate:     g.PerceptibleLate,
		GraceLate:           g.GraceLate,
		MaxPerceptibleDelay: g.MaxPerceptibleDelay,
		AoIMean:             r.AoI.MeanAgeSec,
	}
}

func makeObs(d Device, base, test *sim.Result) Obs {
	cmp := sim.Comparison{Base: base, Test: test}
	return Obs{
		Leaky:   d.LeakApp != "",
		Base:    makePolicyObs(base),
		Test:    makePolicyObs(test),
		Total:   cmp.TotalSavings(),
		Awake:   cmp.AwakeSavings(),
		Standby: cmp.StandbyExtension(),
		Wakeup:  cmp.WakeupReduction(),
	}
}

// ShardAggregate is the serializable result of simulating one
// contiguous device range [Lo, Hi) of a fleet: the per-device
// observation rows in index order, plus shard-level pre-folds of the
// exactly-mergeable backend data. It is what a shard-worker process
// writes to stdout and what the checkpoint file persists.
type ShardAggregate struct {
	// Index is the shard's position in the supervisor's plan.
	Index int
	// Lo, Hi delimit the device range (half-open).
	Lo, Hi int
	// SpecHash guards against folding a shard computed from a different
	// spec (a stale checkpoint, a worker fed the wrong manifest).
	SpecHash [32]byte
	// Obs holds one row per device, Obs[i] for device Lo+i.
	Obs []Obs
	// HasBackend reports whether the spec carried a backend model; the
	// four fields below are only meaningful when it did.
	HasBackend bool
	BaseStats  backend.DeviceStats
	TestStats  backend.DeviceStats
	BaseHist   *backend.Histogram
	TestHist   *backend.Histogram
}

// SpecHash is the canonical content hash of a spec: SHA-256 over the
// JSON encoding of the defaulted spec. Manifests, shard outputs, and
// checkpoints all carry it, so a spec edited between a crash and a
// resume is detected instead of silently merged.
func SpecHash(s Spec) [32]byte {
	blob, err := json.Marshal(s.WithDefaults())
	if err != nil {
		// A Spec is plain data; its JSON encoding cannot fail.
		panic(fmt.Sprintf("fleet: marshal spec: %v", err))
	}
	return sha256.Sum256(blob)
}

// RunShard simulates the device range [lo, hi) of the spec and returns
// its serializable shard aggregate. It is the worker half of the
// multi-process fleet protocol: device sampling is a pure function of
// (Spec, index), so any process can own any range, and the rows it
// returns are the exact values a single-process fleet.Run would have
// folded. workers bounds the sim.RunAll pool (≤ 0 means GOMAXPROCS).
//
// Memory stays bounded by the in-process shard batching: runs execute
// NoTrace in DefaultShardSize batches and only the fixed-width rows
// survive.
func RunShard(ctx context.Context, spec Spec, lo, hi, workers int) (*ShardAggregate, error) {
	spec = spec.WithDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if lo < 0 || hi <= lo || hi > spec.Devices {
		return nil, fmt.Errorf("fleet: shard range [%d, %d) outside fleet of %d devices", lo, hi, spec.Devices)
	}
	sa := &ShardAggregate{
		Lo: lo, Hi: hi,
		SpecHash:   SpecHash(spec),
		Obs:        make([]Obs, 0, hi-lo),
		HasBackend: spec.Backend != nil,
	}
	if sa.HasBackend {
		width := spec.Backend.WithDefaults().BucketWidth
		sa.BaseHist = backend.NewHistogram(width)
		sa.TestHist = backend.NewHistogram(width)
	}
	err := runDevices(ctx, spec, lo, hi, DefaultShardSize, workers, nil, func(d Device, base, test *sim.Result) {
		sa.Obs = append(sa.Obs, makeObs(d, base, test))
		if sa.HasBackend {
			if base.Backend != nil {
				sa.BaseStats.Merge(base.Backend)
				sa.BaseHist.Merge(base.Backend.Hist)
			}
			if test.Backend != nil {
				sa.TestStats.Merge(test.Backend)
				sa.TestHist.Merge(test.Backend.Hist)
			}
		}
	})
	if err != nil {
		from := lo + len(sa.Obs)
		return nil, fmt.Errorf("fleet: shard devices %d–%d: %w", from, min(from+DefaultShardSize, hi)-1, err)
	}
	return sa, nil
}

// MergeShard folds a completed shard into the aggregate. Shards must
// arrive in device order (sa.Lo equal to the devices already folded) —
// the replay of observation rows is what keeps the merged aggregate
// bit-identical to a single-process run, and replay order is part of
// that contract. The spec hash must match the aggregate's spec.
func (a *Aggregate) MergeShard(sa *ShardAggregate) error {
	if sa == nil {
		return fmt.Errorf("fleet: merge of nil shard")
	}
	if want := SpecHash(a.spec); sa.SpecHash != want {
		return fmt.Errorf("fleet: shard %d spec hash %x does not match aggregate spec %x", sa.Index, sa.SpecHash[:4], want[:4])
	}
	if sa.Lo != a.devices {
		return fmt.Errorf("fleet: shard [%d, %d) merged out of order: aggregate holds %d devices", sa.Lo, sa.Hi, a.devices)
	}
	if len(sa.Obs) != sa.Hi-sa.Lo {
		return fmt.Errorf("fleet: shard [%d, %d) carries %d rows, want %d", sa.Lo, sa.Hi, len(sa.Obs), sa.Hi-sa.Lo)
	}
	if sa.HasBackend != (a.spec.Backend != nil) {
		return fmt.Errorf("fleet: shard backend presence %v does not match spec", sa.HasBackend)
	}
	for i := range sa.Obs {
		a.observeObs(sa.Obs[i])
	}
	if sa.HasBackend {
		a.base.mergeBackend(sa.BaseStats, sa.BaseHist)
		a.test.mergeBackend(sa.TestStats, sa.TestHist)
	}
	return nil
}
