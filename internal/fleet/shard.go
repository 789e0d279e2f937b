package fleet

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"

	"repro/internal/backend"
)

// This file is the fleet layer's multi-process seam: a shard worker
// ships the folded state of its device range, and merging states is
// exact, so the supervisor's aggregate is bit-identical to fleet.Run's.

// ShardAggregate is the serializable result of simulating one
// contiguous device range [Lo, Hi) of a fleet: what a shard-worker
// process writes to stdout and what the checkpoint file persists.
type ShardAggregate struct {
	// Index is the shard's position in the supervisor's plan.
	Index int
	// Lo, Hi delimit the device range (half-open).
	Lo, Hi int
	// SpecHash guards against folding a shard computed from a different
	// spec (a stale checkpoint, a worker fed the wrong manifest).
	SpecHash [32]byte
	fold     fold
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
// its folded state: the worker half of the multi-process protocol.
// Sampling is a pure function of (Spec, index), so any process can own
// any range. workers bounds the run pool (≤ 0 means GOMAXPROCS).
func RunShard(ctx context.Context, spec Spec, lo, hi, workers int) (*ShardAggregate, error) {
	spec = spec.WithDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if lo < 0 || hi <= lo || hi > spec.Devices {
		return nil, fmt.Errorf("fleet: shard range [%d, %d) outside fleet of %d devices", lo, hi, spec.Devices)
	}
	agg := NewAggregate(spec)
	if err := runDevices(ctx, spec, lo, hi, workers, nil, agg.observe); err != nil {
		return nil, fmt.Errorf("fleet: shard [%d, %d) after %d devices: %w", lo, hi, agg.Devices(), err)
	}
	sa := agg.state
	sa.Lo, sa.Hi, sa.SpecHash = lo, hi, SpecHash(spec)
	return &sa, nil
}

// MergeShard folds a completed shard into the aggregate. Merging is
// exact; shards arrive in device order (sa.Lo equal to the devices
// already folded) so the aggregate always holds a device prefix. The
// spec hash must match the aggregate's spec.
func (a *Aggregate) MergeShard(sa *ShardAggregate) error {
	st := &a.state
	switch want := SpecHash(a.spec); {
	case sa == nil:
		return fmt.Errorf("fleet: merge of nil shard")
	case sa.SpecHash != want:
		return fmt.Errorf("fleet: shard %d spec hash %x does not match aggregate spec %x", sa.Index, sa.SpecHash[:4], want[:4])
	case sa.Lo != a.Devices():
		return fmt.Errorf("fleet: shard [%d, %d) merged out of order: aggregate holds %d devices", sa.Lo, sa.Hi, a.Devices())
	case sa.fold[0].N() != sa.Hi-sa.Lo:
		return fmt.Errorf("fleet: shard [%d, %d) folds %d devices, want %d", sa.Lo, sa.Hi, sa.fold[0].N(), sa.Hi-sa.Lo)
	case sa.HasBackend != st.HasBackend:
		return fmt.Errorf("fleet: shard backend presence %v does not match spec", sa.HasBackend)
	case sa.HasBackend && (sa.BaseHist.Width != st.BaseHist.Width || sa.TestHist.Width != st.TestHist.Width):
		return fmt.Errorf("fleet: shard histogram widths %v, %v do not match spec's %v", sa.BaseHist.Width, sa.TestHist.Width, st.BaseHist.Width)
	}
	for i := range st.fold {
		st.fold[i].Merge(&sa.fold[i])
	}
	if sa.HasBackend {
		st.BaseStats.Merge(&sa.BaseStats)
		st.TestStats.Merge(&sa.TestStats)
		st.BaseHist.Merge(sa.BaseHist)
		st.TestHist.Merge(sa.TestHist)
	}
	return nil
}
