package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"testing"
	"time"

	"repro/internal/runstore"
	"repro/internal/shardexec"
)

// TestMain lets the test binary stand in for a -shardworker child: in
// multi-process mode the service re-executes os.Executable() — this
// test binary — as its shard workers, and the env marker the sharded
// tests set routes those children into the worker entry point.
// HTTPAPI_TEST_FAIL_SHARD injects one transient fault — the named shard
// exits non-zero on its first attempt — so the retry path is observable
// over HTTP.
func TestMain(m *testing.M) {
	if os.Getenv("HTTPAPI_TEST_SHARDWORKER") == "1" {
		os.Exit(shardedTestWorker())
	}
	os.Exit(m.Run())
}

func shardedTestWorker() int {
	input, err := io.ReadAll(os.Stdin)
	if err != nil {
		return 1
	}
	if idx := os.Getenv("HTTPAPI_TEST_FAIL_SHARD"); idx != "" {
		var mf shardexec.Manifest
		if json.Unmarshal(input, &mf) == nil && strconv.Itoa(mf.Index) == idx && mf.Attempt == 1 {
			return 3
		}
	}
	return shardexec.WorkerMain(context.Background(), bytes.NewReader(input), os.Stdout, os.Stderr)
}

// newShardedTestServer stands the service up in multi-process mode: two
// worker processes, 16-device shards, this test binary as the worker.
func newShardedTestServer(t *testing.T) (*httptest.Server, *runstore.Store) {
	t.Helper()
	t.Setenv("HTTPAPI_TEST_SHARDWORKER", "1")
	store := runstore.New(2)
	ts := httptest.NewServer(New(store, Options{
		SnapshotEvery: 100,
		Procs:         2,
		shardSize:     16,
	}))
	t.Cleanup(func() {
		ts.Close()
		store.CancelAll()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		store.Drain(ctx)
	})
	return ts, store
}

// TestShardedFleetByteIdentity: a fleet executed across worker
// processes stores the same aggregate, byte for byte, as a direct
// in-process fleet.Run — and the run snapshot reports one attempt per
// shard.
func TestShardedFleetByteIdentity(t *testing.T) {
	ts, _ := newShardedTestServer(t)
	status, run := post(t, ts.URL+"/fleets", fleetSpecJSON)
	if status != http.StatusAccepted {
		t.Fatalf("POST /fleets = %d", status)
	}
	e := waitTerminal(t, ts.URL+"/fleets/"+run.ID)
	if e.State != runstore.StateDone {
		t.Fatalf("state = %s (%s)", e.State, e.Error)
	}
	want := directSummaryJSON(t, fleetSpecJSON)
	if !bytes.Equal(e.Result, want) {
		t.Fatalf("sharded summary diverges from direct fleet.Run:\nhttp   %s\ndirect %s", e.Result, want)
	}
	var snap runstore.Run
	if status, blob := getJSON(t, ts.URL+"/fleets/"+run.ID, &snap); status != http.StatusOK {
		t.Fatalf("GET = %d: %s", status, blob)
	}
	// 60 devices in 16-device shards: 4 shards, one attempt each.
	if snap.Attempts != 4 || snap.Retries != 0 {
		t.Fatalf("attempts=%d retries=%d, want 4 and 0", snap.Attempts, snap.Retries)
	}
}

// TestShardedFleetSSERetry injects a first-attempt crash into one shard
// and tails the SSE stream: the "shard" lifecycle events must show the
// retry, the stored counters must count it, and the final aggregate
// must still be byte-identical to the crash-free direct run.
func TestShardedFleetSSERetry(t *testing.T) {
	t.Setenv("HTTPAPI_TEST_FAIL_SHARD", "1")
	ts, _ := newShardedTestServer(t)
	status, run := post(t, ts.URL+"/fleets", fleetSpecJSON)
	if status != http.StatusAccepted {
		t.Fatalf("POST /fleets = %d", status)
	}
	events := tailSSE(t, ts.URL+"/fleets/"+run.ID+"/events")
	var retries, oks int
	for _, ev := range events {
		if ev.Type != "shard" {
			continue
		}
		var sd shardData
		if err := json.Unmarshal(ev.Data, &sd); err != nil {
			t.Fatal(err)
		}
		switch sd.State {
		case "retry":
			retries++
			if sd.Index != 1 || sd.Error == "" {
				t.Fatalf("retry event %+v: want shard 1 with an error", sd)
			}
		case "ok":
			oks++
		}
	}
	// The retry fires after the supervisor's backoff, long after the SSE
	// subscription attaches, so it cannot be missed.
	if retries != 1 {
		t.Fatalf("saw %d retry events, want 1", retries)
	}
	if oks == 0 {
		t.Fatal("no shard ok events on the stream")
	}

	e := waitTerminal(t, ts.URL+"/fleets/"+run.ID)
	if e.State != runstore.StateDone {
		t.Fatalf("state = %s (%s)", e.State, e.Error)
	}
	if want := directSummaryJSON(t, fleetSpecJSON); !bytes.Equal(e.Result, want) {
		t.Fatal("summary diverged after an injected worker crash")
	}
	var snap runstore.Run
	getJSON(t, ts.URL+"/fleets/"+run.ID, &snap)
	if snap.Attempts != 5 || snap.Retries != 1 {
		t.Fatalf("attempts=%d retries=%d, want 5 and 1", snap.Attempts, snap.Retries)
	}
}

// TestFleetSSEEventsFollowExecutionShape: one fleet exec serves both
// execution shapes, and the stream tells them apart — "run" events and
// no "shard" events in process, "shard" lifecycle events and no "run"
// events across worker processes — over the same summary bytes.
func TestFleetSSEEventsFollowExecutionShape(t *testing.T) {
	t.Setenv("HTTPAPI_TEST_SHARDWORKER", "1")
	want := directSummaryJSON(t, fleetSpecJSON)
	for _, tc := range []struct {
		procs        int
		runs, shards int
	}{
		// fleetSpecJSON has 60 devices: two runs each in process, or
		// four 16-device shards that each start and finish once.
		{procs: 0, runs: 120},
		{procs: 2, shards: 8},
	} {
		t.Run(fmt.Sprintf("procs=%d", tc.procs), func(t *testing.T) {
			store := runstore.New(1)
			ts := httptest.NewServer(New(store, Options{SnapshotEvery: 100, Procs: tc.procs, shardSize: 16}))
			t.Cleanup(func() {
				ts.Close()
				store.CancelAll()
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				store.Drain(ctx)
			})
			// Hold the only slot until the fleet's stream is open, so the
			// stream sees the fleet from its first event.
			started, release := make(chan struct{}), make(chan struct{})
			if _, err := store.Submit("run", func(ctx context.Context, h runstore.Handle) (any, error) {
				close(started)
				select {
				case <-release:
				case <-ctx.Done():
				}
				return nil, nil
			}); err != nil {
				t.Fatal(err)
			}
			<-started
			status, run := post(t, ts.URL+"/fleets", fleetSpecJSON)
			if status != http.StatusAccepted {
				t.Fatalf("POST /fleets = %d", status)
			}
			resp, err := http.Get(ts.URL + "/fleets/" + run.ID + "/events")
			if err != nil {
				t.Fatal(err)
			}
			close(release)
			count := map[string]int{}
			for _, ev := range readSSE(t, resp) {
				count[ev.Type]++
			}
			if count["run"] != tc.runs || count["shard"] != tc.shards {
				t.Fatalf("stream carried %d run and %d shard events, want %d and %d", count["run"], count["shard"], tc.runs, tc.shards)
			}
			if count["device"] == 0 || count["done"] != 1 {
				t.Fatalf("stream carried %d device and %d done events", count["device"], count["done"])
			}
			e := waitTerminal(t, ts.URL+"/fleets/"+run.ID)
			if e.State != runstore.StateDone || !bytes.Equal(e.Result, want) {
				t.Fatalf("state %s (%s): summary diverged from direct fleet.Run", e.State, e.Error)
			}
		})
	}
}
