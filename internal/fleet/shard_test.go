package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"testing"

	"repro/internal/backend"
)

// shardSpecs are the two fleet shapes every sharding test must hold
// for: with and without the backend co-simulation (the backend adds the
// pre-folded histogram/counter path to shard merging).
func shardSpecs() map[string]Spec {
	return map[string]Spec{
		"plain": {Devices: 24, Seed: 9, Hours: 0.5, Apps: IntRange{Min: 1, Max: 3}},
		"backend": {Devices: 24, Seed: 9, Hours: 0.5, Apps: IntRange{Min: 1, Max: 3},
			Backend: &backend.Model{ShedRate: 0.05, Capacity: 20, QueueLimit: 300}},
	}
}

func marshalSummary(t *testing.T, s Summary) []byte {
	t.Helper()
	blob, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// runShards splits [0, devices) into ranges of size step and runs each
// through RunShard.
func runShards(t *testing.T, spec Spec, step int) []*ShardAggregate {
	t.Helper()
	spec = spec.WithDefaults()
	var out []*ShardAggregate
	for lo := 0; lo < spec.Devices; lo += step {
		hi := lo + step
		if hi > spec.Devices {
			hi = spec.Devices
		}
		sa, err := RunShard(context.Background(), spec, lo, hi, 2)
		if err != nil {
			t.Fatal(err)
		}
		sa.Index = len(out)
		out = append(out, sa)
	}
	return out
}

// TestMergeShardMatchesRun is the tentpole determinism contract at the
// library layer: splitting a fleet into shards of any size, running the
// shards independently (any process could own any of them), and merging
// in device order yields Summary JSON byte-identical to the
// single-process fleet.Run.
func TestMergeShardMatchesRun(t *testing.T) {
	for name, spec := range shardSpecs() {
		t.Run(name, func(t *testing.T) {
			ref, err := Run(context.Background(), spec, Options{})
			if err != nil {
				t.Fatal(err)
			}
			want := marshalSummary(t, ref.Agg.Summary())
			for _, step := range []int{1, 5, 7, 24} {
				agg := NewAggregate(spec)
				for _, sa := range runShards(t, spec, step) {
					if err := agg.MergeShard(sa); err != nil {
						t.Fatal(err)
					}
				}
				got := marshalSummary(t, agg.Summary())
				if string(got) != string(want) {
					t.Fatalf("step %d: merged summary diverged from fleet.Run:\n got %s\nwant %s", step, got, want)
				}
			}
		})
	}
}

// TestMergeShardRejectsBadShards pins the merge guards: out-of-order
// arrival, spec-hash mismatch, a state whose device count is not the
// shard's, and backend-presence mismatch are all errors, never silent
// corruption.
func TestMergeShardRejectsBadShards(t *testing.T) {
	spec := shardSpecs()["plain"]
	shards := runShards(t, spec, 8)

	agg := NewAggregate(spec)
	if err := agg.MergeShard(shards[1]); err == nil {
		t.Error("out-of-order shard merged")
	}
	if err := agg.MergeShard(nil); err == nil {
		t.Error("nil shard merged")
	}

	other := spec
	other.Seed = 1234
	wrongSpec := NewAggregate(other)
	if err := wrongSpec.MergeShard(shards[0]); err == nil {
		t.Error("shard with mismatched spec hash merged")
	}

	short := *shards[0]
	short.fold = runShards(t, spec, 7)[0].fold
	if err := NewAggregate(spec).MergeShard(&short); err == nil {
		t.Error("shard whose state folds 7 of its 8 devices merged")
	}

	flipped := *shards[0]
	flipped.HasBackend = true
	if err := NewAggregate(spec).MergeShard(&flipped); err == nil {
		t.Error("shard with mismatched backend presence merged")
	}
}

// TestRunShardRejectsBadRange: ranges outside the fleet are errors.
func TestRunShardRejectsBadRange(t *testing.T) {
	spec := shardSpecs()["plain"]
	for _, r := range [][2]int{{-1, 4}, {4, 4}, {6, 2}, {0, 25}} {
		if _, err := RunShard(context.Background(), spec, r[0], r[1], 1); err == nil {
			t.Errorf("range [%d, %d) accepted", r[0], r[1])
		}
	}
	if _, err := RunShard(context.Background(), Spec{}, 0, 1, 1); err == nil {
		t.Error("invalid spec accepted")
	}
}

// TestRunCancellationClassified is the regression test for the error
// classification contract: cancelling the context mid-fleet must
// surface as the fleet being cancelled — errors.Is(err,
// context.Canceled) — distinct from a shard failure, while still
// returning the partial aggregate.
func TestRunCancellationClassified(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	spec := Spec{Devices: 200, Seed: 2, Hours: 0.5}
	var partial *Result
	partial, err := Run(ctx, spec, Options{
		Workers: 1,
		Progress: func(done, total int) {
			if done == 8 {
				cancel()
			}
		},
	})
	if err == nil {
		t.Fatal("Run survived mid-fleet cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("errors.Is(err, context.Canceled) = false for %q", err)
	}
	if partial == nil || partial.Agg == nil {
		t.Fatal("cancellation returned no partial result")
	}
	if n := partial.Agg.Devices(); n < 8 || n >= 200 {
		t.Fatalf("partial aggregate holds %d devices, want a proper prefix ≥ 8", n)
	}
	// The partial prefix must equal a clean run truncated to the same
	// device count — cancellation cannot have poisoned the fold.
	n := partial.Agg.Devices()
	truncated := spec
	truncated.Devices = n
	ref, err2 := Run(context.Background(), truncated, Options{})
	if err2 != nil {
		t.Fatal(err2)
	}
	if string(marshalSummary(t, partial.Agg.Summary())) != string(marshalSummary(t, ref.Agg.Summary())) {
		t.Fatalf("partial aggregate after cancellation diverged from clean %d-device run", n)
	}
}
