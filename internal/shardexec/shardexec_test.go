package shardexec

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/fleet"
	"repro/internal/sim"
)

// The supervisor tests need real worker processes to kill, hang, and
// corrupt. Rebuilding wakesim for that would couple the package test to
// the CLI, so the test binary doubles as the worker: TestMain
// re-executes itself with SHARDEXEC_TEST_WORKER=1 and runs
// testWorkerMain instead of the test suite. Fault injection rides the
// same channel — SHARDEXEC_FAULTS carries a JSON map of shard index →
// fault, attempt-aware so "crash on attempt 1, succeed on attempt 2"
// exercises the retry path deterministically.

func TestMain(m *testing.M) {
	if os.Getenv("SHARDEXEC_TEST_WORKER") == "1" {
		os.Exit(testWorkerMain())
	}
	os.Exit(m.Run())
}

// fault describes one injected failure mode for a shard.
type fault struct {
	// Mode is one of exit3, sigkill, hang, garbage, truncate,
	// wrongshard.
	Mode string `json:"mode"`
	// Attempts lists the attempt numbers the fault fires on; empty
	// means every attempt (a poison shard).
	Attempts []int `json:"attempts,omitempty"`
}

func (f fault) firesOn(attempt int) bool {
	if len(f.Attempts) == 0 {
		return true
	}
	for _, a := range f.Attempts {
		if a == attempt {
			return true
		}
	}
	return false
}

func testWorkerMain() int {
	input, err := io.ReadAll(os.Stdin)
	if err != nil {
		return 1
	}
	var m Manifest
	if err := json.Unmarshal(input, &m); err != nil {
		return 1
	}
	faults := map[string]fault{}
	if fj := os.Getenv("SHARDEXEC_FAULTS"); fj != "" {
		if err := json.Unmarshal([]byte(fj), &faults); err != nil {
			return 1
		}
	}
	f, faulted := faults[strconv.Itoa(m.Index)]
	faulted = faulted && f.firesOn(m.Attempt)
	if faulted {
		switch f.Mode {
		case "exit3":
			os.Exit(3)
		case "sigkill":
			// A real crash: no exit handler, no output flushing.
			syscall.Kill(os.Getpid(), syscall.SIGKILL)
			select {} // unreachable
		case "hang":
			time.Sleep(time.Minute)
			os.Exit(3)
		case "garbage":
			os.Stdout.WriteString("these bytes are not a shard frame")
			return 0
		}
	}
	var out bytes.Buffer
	if code := WorkerMain(context.Background(), bytes.NewReader(input), &out, os.Stderr); code != 0 {
		return code
	}
	frame := out.Bytes()
	if faulted {
		switch f.Mode {
		case "truncate":
			// A worker that died mid-write: the frame stops halfway.
			frame = frame[:len(frame)/2]
		case "wrongshard":
			// A confused worker: a perfectly valid frame for the wrong
			// device range.
			sa, err := fleet.DecodeShard(frame)
			if err != nil {
				return 1
			}
			size := sa.Hi - sa.Lo
			sa.Index++
			sa.Lo += size
			sa.Hi += size
			frame = fleet.EncodeShard(sa)
		}
	}
	if _, err := os.Stdout.Write(frame); err != nil {
		return 1
	}
	return 0
}

// testOptions builds supervisor options that re-exec this test binary
// as the worker, with the given faults installed.
func testOptions(t *testing.T, faults map[string]fault) Options {
	t.Helper()
	env := []string{"SHARDEXEC_TEST_WORKER=1"}
	if len(faults) > 0 {
		blob, err := json.Marshal(faults)
		if err != nil {
			t.Fatal(err)
		}
		env = append(env, "SHARDEXEC_FAULTS="+string(blob))
	} else {
		env = append(env, "SHARDEXEC_FAULTS=")
	}
	return Options{
		Procs:      2,
		WorkerArgv: []string{os.Args[0]},
		WorkerEnv:  env,
	}
}

func testSpec(backendToo bool) fleet.Spec {
	s := fleet.Spec{Devices: 20, Seed: 41, Hours: 0.1, Apps: fleet.IntRange{Min: 1, Max: 2}}
	if backendToo {
		s.Backend = &backend.Model{ShedRate: 0.05, Capacity: 20, QueueLimit: 300}
	}
	return s
}

func cleanSummary(t *testing.T, spec fleet.Spec) []byte {
	t.Helper()
	ref, err := fleet.Run(context.Background(), spec, fleet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(ref.Agg.Summary())
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func resultSummary(t *testing.T, res *Result) []byte {
	t.Helper()
	blob, err := json.Marshal(res.Agg.Summary())
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestRunMatchesSingleProcess is the headline determinism contract:
// for both fleet shapes and several process counts, the supervised
// multi-process Summary JSON is byte-identical to fleet.Run's.
func TestRunMatchesSingleProcess(t *testing.T) {
	for _, withBackend := range []bool{false, true} {
		spec := testSpec(withBackend)
		want := cleanSummary(t, spec)
		for _, procs := range []int{1, 3} {
			opts := testOptions(t, nil)
			opts.Procs = procs
			opts.ShardSize = 6
			res, err := Run(context.Background(), spec, opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Completed != res.Shards || res.Shards != 4 {
				t.Fatalf("completed %d of %d shards, want 4 of 4", res.Completed, res.Shards)
			}
			if res.Attempts != res.Shards || res.Retries != 0 {
				t.Fatalf("attempts=%d retries=%d for a crash-free run of %d shards", res.Attempts, res.Retries, res.Shards)
			}
			if got := resultSummary(t, res); !bytes.Equal(got, want) {
				t.Fatalf("backend=%v procs=%d: summary diverged from single-process run:\n got %s\nwant %s", withBackend, procs, got, want)
			}
		}
	}
}

// TestRunSurvivesTransientFaults injects a different first-attempt
// failure into almost every shard — clean crash, SIGKILL, truncated
// frame, garbage output, and a valid frame for the wrong shard — and
// requires the retried run to converge on the byte-identical summary.
func TestRunSurvivesTransientFaults(t *testing.T) {
	spec := testSpec(true)
	want := cleanSummary(t, spec)
	faults := map[string]fault{
		"0": {Mode: "exit3", Attempts: []int{1}},
		"1": {Mode: "sigkill", Attempts: []int{1}},
		"2": {Mode: "truncate", Attempts: []int{1}},
		"3": {Mode: "garbage", Attempts: []int{1}},
		"4": {Mode: "wrongshard", Attempts: []int{1, 2}},
	}
	opts := testOptions(t, faults)
	opts.Procs = 3
	opts.ShardSize = 4 // 5 shards of 4 devices
	var events []ShardEvent
	opts.OnShard = func(ev ShardEvent) { events = append(events, ev) }
	res, err := Run(context.Background(), spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := resultSummary(t, res); !bytes.Equal(got, want) {
		t.Fatalf("summary diverged after injected faults:\n got %s\nwant %s", got, want)
	}
	// Shards 0–3 fail once each, shard 4 fails twice: 6 retries.
	if res.Retries != 6 || res.Attempts != res.Shards+6 {
		t.Fatalf("retries=%d attempts=%d, want 6 and %d", res.Retries, res.Attempts, res.Shards+6)
	}
	if len(res.Quarantined) != 0 {
		t.Fatalf("quarantined %v on a recoverable run", res.Quarantined)
	}
	var retries, oks int
	for _, ev := range events {
		switch ev.State {
		case "retry":
			retries++
			if ev.Err == "" {
				t.Error("retry event without an error")
			}
		case "ok":
			oks++
		}
	}
	if retries != 6 || oks != 5 {
		t.Fatalf("observed %d retry / %d ok events, want 6 / 5", retries, oks)
	}
}

// TestRunQuarantinesPoisonShard: a shard that fails every attempt is
// quarantined after maxAttempts; the run returns the longest contiguous
// prefix (byte-identical to a truncated clean run) plus joined errors —
// and the error is NOT classified as a cancellation.
func TestRunQuarantinesPoisonShard(t *testing.T) {
	spec := testSpec(false)
	opts := testOptions(t, map[string]fault{"2": {Mode: "exit3"}})
	opts.Procs = 2
	opts.ShardSize = 4
	res, err := Run(context.Background(), spec, opts)
	if err == nil {
		t.Fatal("poison shard did not fail the run")
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("quarantine misclassified as cancellation: %v", err)
	}
	if !strings.Contains(err.Error(), "quarantined") || !strings.Contains(err.Error(), fmt.Sprintf("attempt %d", maxAttempts)) {
		t.Fatalf("error %q does not describe the quarantine attempts", err)
	}
	if len(res.Quarantined) != 1 || res.Quarantined[0] != 2 {
		t.Fatalf("quarantined = %v, want [2]", res.Quarantined)
	}
	if n := res.Agg.Devices(); n != 8 {
		t.Fatalf("partial aggregate holds %d devices, want the 8 before the poison shard", n)
	}
	truncated := spec
	truncated.Devices = 8
	if got, want := resultSummary(t, res), cleanSummary(t, truncated); !bytes.Equal(got, want) {
		t.Fatalf("partial prefix diverged from clean 8-device run:\n got %s\nwant %s", got, want)
	}
}

// TestRunSnapshotEveryCountsDevices: SnapshotEvery is a device
// interval, as in fleet.Run — a snapshot follows each merge that crosses
// a multiple of it, plus the final merge — whether the interval is
// below the shard size or spans several shards.
func TestRunSnapshotEveryCountsDevices(t *testing.T) {
	spec := testSpec(false) // 20 devices: 5 shards of 4
	for _, tc := range []struct {
		every int
		want  []int
	}{
		{every: 3, want: []int{4, 8, 12, 16, 20}},
		{every: 8, want: []int{8, 16, 20}},
	} {
		opts := testOptions(t, nil)
		opts.Procs = 2
		opts.ShardSize = 4
		opts.SnapshotEvery = tc.every
		var got []int
		opts.Snapshot = func(done, total int, s fleet.Summary) {
			if total != spec.Devices || s.Devices != done {
				t.Errorf("every=%d: snapshot at %d of %d carries %d devices", tc.every, done, total, s.Devices)
			}
			got = append(got, done)
		}
		if _, err := Run(context.Background(), spec, opts); err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("every=%d: snapshots at %v devices, want %v", tc.every, got, tc.want)
		}
	}
}

// TestRunKillsHungWorker: a worker that never finishes is killed at the
// per-attempt deadline and the shard retried.
func TestRunKillsHungWorker(t *testing.T) {
	spec := testSpec(false)
	opts := testOptions(t, map[string]fault{"0": {Mode: "hang", Attempts: []int{1}}})
	opts.Procs = 2
	opts.ShardSize = 10
	opts.WorkerTimeout = 2 * time.Second
	start := time.Now()
	res, err := Run(context.Background(), spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Retries != 1 {
		t.Fatalf("retries = %d, want 1 (the hung attempt)", res.Retries)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("run took %v; the hung worker was not killed at the deadline", elapsed)
	}
	if got, want := resultSummary(t, res), cleanSummary(t, spec); !bytes.Equal(got, want) {
		t.Fatal("summary diverged after a killed hung worker")
	}
}

// TestRunCancellationClassified: cancelling the supervisor's context
// surfaces as errors.Is(err, context.Canceled) with a partial result,
// never as shard failures.
func TestRunCancellationClassified(t *testing.T) {
	spec := testSpec(false)
	ctx, cancel := context.WithCancel(context.Background())
	opts := testOptions(t, nil)
	opts.Procs = 1
	opts.ShardSize = 2 // 10 shards
	opts.Progress = func(done, total int) {
		if done >= 4 {
			cancel()
		}
	}
	res, err := Run(ctx, spec, opts)
	if err == nil {
		t.Fatal("run survived cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("errors.Is(err, context.Canceled) = false for %q", err)
	}
	if res == nil || res.Agg == nil || res.Agg.Devices() == 0 {
		t.Fatal("cancellation returned no partial aggregate")
	}
	if len(res.Quarantined) != 0 {
		t.Fatalf("cancellation quarantined shards %v", res.Quarantined)
	}
}

// TestRunRejectsInvalidSpec mirrors fleet.Run's nil-result contract.
func TestRunRejectsInvalidSpec(t *testing.T) {
	if res, err := Run(context.Background(), fleet.Spec{}, testOptions(t, nil)); err == nil || res != nil {
		t.Fatalf("invalid spec returned (%v, %v), want (nil, error)", res, err)
	}
}

// TestRunInProcessMatchesFleetRun: with Procs 0, Run is fleet.Run in
// this process with every shard counter at zero — the same Summary
// bytes, the same Progress and Snapshot calls, every run reported to
// RunProgress, and on cancellation the same partial aggregate and
// error. A checkpoint, which only worker processes write, is refused.
func TestRunInProcessMatchesFleetRun(t *testing.T) {
	for _, tc := range []struct {
		name       string
		devices    int
		cancelAt   int // Progress cancels the run at this many devices; 0 never
		checkpoint bool
	}{
		{name: "clean", devices: 20},
		// A cancel inside a device's fold stops the run pool before it
		// delivers another run, so exactly the devices folded so far stay.
		{name: "cancelled", devices: 72, cancelAt: 64},
		{name: "checkpoint refused", devices: 20, checkpoint: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := testSpec(true)
			spec.Devices = tc.devices
			// observers logs every Progress and Snapshot call and counts
			// RunProgress calls, whose order is completion order.
			observers := func(calls *[]string, runs *int, cancel context.CancelFunc) fleet.Options {
				return fleet.Options{
					Workers:       2,
					SnapshotEvery: 7,
					Progress: func(done, total int) {
						*calls = append(*calls, fmt.Sprintf("progress %d/%d", done, total))
						if done == tc.cancelAt {
							cancel()
						}
					},
					RunProgress: func(sim.Progress) { *runs++ },
					Snapshot: func(done, total int, s fleet.Summary) {
						blob, err := json.Marshal(s)
						if err != nil {
							t.Error(err)
						}
						*calls = append(*calls, fmt.Sprintf("snapshot %d/%d %s", done, total, blob))
					},
				}
			}

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var wantCalls []string
			var wantRuns int
			want, wantErr := fleet.Run(ctx, spec, observers(&wantCalls, &wantRuns, cancel))

			ctx, cancel = context.WithCancel(context.Background())
			defer cancel()
			var gotCalls []string
			var gotRuns int
			fo := observers(&gotCalls, &gotRuns, cancel)
			opts := Options{Workers: fo.Workers, SnapshotEvery: fo.SnapshotEvery,
				Progress: fo.Progress, RunProgress: fo.RunProgress, Snapshot: fo.Snapshot}
			if tc.checkpoint {
				opts.Checkpoint = filepath.Join(t.TempDir(), "run.ckpt")
			}
			res, err := Run(ctx, spec, opts)

			if tc.checkpoint {
				if res != nil || err == nil {
					t.Fatalf("checkpoint without worker processes returned (%v, %v), want (nil, error)", res, err)
				}
				if len(gotCalls) > 0 || gotRuns > 0 {
					t.Fatalf("refused run still simulated: %d calls, %d runs", len(gotCalls), gotRuns)
				}
				return
			}
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("error %v, want fleet.Run's %v", err, wantErr)
			}
			if tc.cancelAt > 0 && !errors.Is(err, context.Canceled) {
				t.Fatalf("errors.Is(err, context.Canceled) = false for %v", err)
			}
			if res == nil || res.Agg == nil {
				t.Fatal("no result")
			}
			if n := res.Agg.Devices(); tc.cancelAt > 0 && n != tc.cancelAt {
				t.Fatalf("partial aggregate holds %d devices, want %d", n, tc.cancelAt)
			}
			if res.Shards != 0 || res.Completed != 0 || res.Resumed != 0 || res.Attempts != 0 || res.Retries != 0 || res.Quarantined != nil {
				t.Fatalf("in-process run reports shard counters: %+v", res)
			}
			wantJSON, err := json.Marshal(want.Agg.Summary())
			if err != nil {
				t.Fatal(err)
			}
			if got := resultSummary(t, res); !bytes.Equal(got, wantJSON) {
				t.Fatalf("summary diverged from fleet.Run:\n got %s\nwant %s", got, wantJSON)
			}
			if strings.Join(gotCalls, "\n") != strings.Join(wantCalls, "\n") {
				t.Fatalf("Progress/Snapshot calls diverged from fleet.Run's:\n got %.400q\nwant %.400q", gotCalls, wantCalls)
			}
			if tc.cancelAt == 0 && (gotRuns != 2*spec.Devices || wantRuns != gotRuns) {
				t.Fatalf("RunProgress saw %d runs (fleet.Run %d), want %d", gotRuns, wantRuns, 2*spec.Devices)
			}
		})
	}
}
