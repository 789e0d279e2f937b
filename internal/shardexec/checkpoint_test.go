package shardexec

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/fleet"
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

// logRecord is one record of a checkpoint log as readRecord returns it.
type logRecord struct {
	typ     byte
	payload []byte
}

// readLog reads every record of a checkpoint log.
func readLog(t *testing.T, path string) []logRecord {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var recs []logRecord
	for {
		typ, payload, err := readRecord(f)
		if err == io.EOF {
			return recs
		}
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, logRecord{typ, payload})
	}
}

// writeLog replaces a checkpoint log with the given records.
func writeLog(t *testing.T, path string, recs []logRecord) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, r := range recs {
		if err := appendRecord(f, r.typ, r.payload); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCheckpointLogHoldsHeaderAndShards pins the log format: a
// checkpointed run writes one 'H' record and then one 'S' record per
// shard, and nothing else; resuming the complete log launches no
// worker and reproduces fleet.Run's summary byte for byte; and a log
// whose header carries any older version is refused by an error naming
// both versions.
func TestCheckpointLogHoldsHeaderAndShards(t *testing.T) {
	spec := testSpec(true)
	want := cleanSummary(t, spec)
	ckpt := filepath.Join(t.TempDir(), "fleet.ckpt")
	opts := testOptions(t, nil)
	opts.Procs = 3
	opts.ShardSize = 4
	opts.Checkpoint = ckpt
	res, err := Run(context.Background(), spec, opts)
	if err != nil {
		t.Fatal(err)
	}

	recs := readLog(t, ckpt)
	if len(recs) != 1+res.Shards {
		t.Fatalf("log holds %d records, want 'H' plus %d shard records", len(recs), res.Shards)
	}
	if recs[0].typ != recHeader {
		t.Fatalf("log starts with a %q record, want 'H'", recs[0].typ)
	}
	seen := make(map[int]bool)
	for i, r := range recs[1:] {
		if r.typ != recShard {
			t.Fatalf("record %d has type %q, want 'S'", i+1, r.typ)
		}
		sa, err := fleet.DecodeShard(r.payload)
		if err != nil {
			t.Fatal(err)
		}
		if seen[sa.Index] {
			t.Fatalf("shard %d logged twice", sa.Index)
		}
		seen[sa.Index] = true
	}

	opts.Resume = true
	res, err = Run(context.Background(), spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempts != 0 || res.Resumed != res.Shards {
		t.Fatalf("attempts=%d resumed=%d of %d, want 0 attempts and a full resume", res.Attempts, res.Resumed, res.Shards)
	}
	if got := resultSummary(t, res); !bytes.Equal(got, want) {
		t.Fatalf("resumed summary diverged:\n got %s\nwant %s", got, want)
	}

	for version := 1; version < checkpointVersion; version++ {
		var hdr checkpointHeader
		if err := json.Unmarshal(recs[0].payload, &hdr); err != nil {
			t.Fatal(err)
		}
		hdr.Version = version
		old, err := json.Marshal(hdr)
		if err != nil {
			t.Fatal(err)
		}
		writeLog(t, ckpt, append([]logRecord{{recHeader, old}}, recs[1:]...))
		wantErr := fmt.Sprintf("checkpoint version %d, want %d", version, checkpointVersion)
		if _, err := Run(context.Background(), spec, opts); err == nil || !strings.Contains(err.Error(), wantErr) {
			t.Fatalf("version %d log resumed: %v", version, err)
		}
	}
}

// TestCheckpointResumeReportsCachedShardsInOrder: a resume whose log
// holds shards 0, 1 and 3 of 5 reports each of them as "cached" exactly
// once, in index order, runs only shards 2 and 4, and reports every
// merge to Progress in device order, the recovered shards included.
func TestCheckpointResumeReportsCachedShardsInOrder(t *testing.T) {
	spec := testSpec(false) // 20 devices: 5 shards of 4
	want := cleanSummary(t, spec)
	ckpt := filepath.Join(t.TempDir(), "fleet.ckpt")
	opts := testOptions(t, nil)
	opts.Procs = 3
	opts.ShardSize = 4
	opts.Checkpoint = ckpt
	if _, err := Run(context.Background(), spec, opts); err != nil {
		t.Fatal(err)
	}
	recs := readLog(t, ckpt)
	kept := recs[:1]
	for _, r := range recs[1:] {
		sa, err := fleet.DecodeShard(r.payload)
		if err != nil {
			t.Fatal(err)
		}
		if sa.Index != 2 && sa.Index != 4 {
			kept = append(kept, r)
		}
	}
	writeLog(t, ckpt, kept)

	opts.Resume = true
	var cached, started, progress []int
	opts.OnShard = func(ev ShardEvent) {
		switch ev.State {
		case "cached":
			cached = append(cached, ev.Index)
		case "start":
			started = append(started, ev.Index)
		}
	}
	opts.Progress = func(done, total int) { progress = append(progress, done) }
	res, err := Run(context.Background(), spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	sort.Ints(started)
	if fmt.Sprint(cached) != "[0 1 3]" || fmt.Sprint(started) != "[2 4]" {
		t.Fatalf("cached %v and started %v, want [0 1 3] and [2 4]", cached, started)
	}
	if fmt.Sprint(progress) != "[4 8 12 16 20]" {
		t.Fatalf("progress reported %v devices, want [4 8 12 16 20]", progress)
	}
	if res.Resumed != 3 || res.Attempts != 2 {
		t.Fatalf("resumed=%d attempts=%d, want 3 and 2", res.Resumed, res.Attempts)
	}
	if got := resultSummary(t, res); !bytes.Equal(got, want) {
		t.Fatal("resumed summary diverged")
	}
}
