package httpapi

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/alarm"
	"repro/internal/fleet"
	"repro/internal/runstore"
	"repro/internal/sim"
	"repro/internal/simclock"
)

// newTestServer stands up the full service over real HTTP (SSE needs a
// flushing ResponseWriter, which httptest.NewServer provides).
func newTestServer(t *testing.T, maxConcurrent int) (*httptest.Server, *runstore.Store) {
	t.Helper()
	store := runstore.New(maxConcurrent)
	ts := httptest.NewServer(New(store, Options{SnapshotEvery: 100}))
	t.Cleanup(func() {
		ts.Close()
		store.CancelAll()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		store.Drain(ctx)
	})
	return ts, store
}

// post submits a JSON body and decodes the response envelope.
func post(t *testing.T, url, body string) (int, runstore.Run) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var run runstore.Run
	blob, _ := io.ReadAll(resp.Body)
	if resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(blob, &run); err != nil {
			t.Fatalf("decode %s: %v", blob, err)
		}
	}
	return resp.StatusCode, run
}

// getJSON fetches a URL and decodes it into v, returning the status and
// raw body.
func getJSON(t *testing.T, url string, v any) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, _ := io.ReadAll(resp.Body)
	if v != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(blob, v); err != nil {
			t.Fatalf("decode %s: %v", blob, err)
		}
	}
	return resp.StatusCode, blob
}

// envelope mirrors runstore.Run with the result kept raw so tests can
// compare its exact bytes.
type envelope struct {
	ID     string          `json:"id"`
	Kind   string          `json:"kind"`
	State  runstore.State  `json:"state"`
	Done   int             `json:"done"`
	Total  int             `json:"total"`
	Error  string          `json:"error"`
	Result json.RawMessage `json:"result"`
}

// waitTerminal polls the entry until it leaves pending/running.
func waitTerminal(t *testing.T, url string) envelope {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		var e envelope
		status, blob := getJSON(t, url, &e)
		if status != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", url, status, blob)
		}
		if e.State.Terminal() {
			return e
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("run at %s never finished", url)
	return envelope{}
}

// sseEvent is one parsed text/event-stream frame.
type sseEvent struct {
	Type string
	Data []byte
}

// tailSSE consumes the event stream until it closes (the handler closes
// it after the "done" frame) and returns every frame in order.
func tailSSE(t *testing.T, url string) []sseEvent {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return readSSE(t, resp)
}

// readSSE is tailSSE on a stream already opened. The handler subscribes
// before it writes the response header, so the stream carries every
// event published after http.Get returns.
func readSSE(t *testing.T, resp *http.Response) []sseEvent {
	t.Helper()
	defer resp.Body.Close()
	url := resp.Request.URL
	if resp.StatusCode != http.StatusOK {
		blob, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s = %d: %s", url, resp.StatusCode, blob)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}
	var events []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024) // snapshots are sizeable
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.Type = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.Data = []byte(strings.TrimPrefix(line, "data: "))
		case line == "":
			if cur.Type != "" {
				events = append(events, cur)
			}
			cur = sseEvent{}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("tail %s: %v", url, err)
	}
	return events
}

func TestSubmitRunLifecycle(t *testing.T) {
	ts, _ := newTestServer(t, 2)
	status, run := post(t, ts.URL+"/runs", `{"workload": "light", "hours": 0.25, "seed": 3}`)
	if status != http.StatusAccepted {
		t.Fatalf("POST /runs = %d", status)
	}
	if run.Kind != "run" || !strings.HasPrefix(run.ID, "r-") {
		t.Fatalf("submitted run = %+v", run)
	}

	e := waitTerminal(t, ts.URL+"/runs/"+run.ID)
	if e.State != runstore.StateDone {
		t.Fatalf("state = %s (%s), want done", e.State, e.Error)
	}
	var sum RunSummary
	if err := json.Unmarshal(e.Result, &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Policy != "SIMTY" || sum.Name != "light" {
		t.Fatalf("summary = %+v", sum)
	}
	if sum.EnergyMJ <= 0 || sum.Wakeups <= 0 || sum.Deliveries <= 0 {
		t.Fatalf("degenerate summary: %+v", sum)
	}
	if e.Done != 1 || e.Total != 1 {
		t.Fatalf("progress = %d/%d, want 1/1", e.Done, e.Total)
	}

	// The service's run keeps no Records, yet its summary equals that
	// of a direct run that retains them, wall time aside.
	cfg, err := RunSpec{Workload: "light", Hours: 0.25, Seed: 3}.Config()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(direct.Records) == 0 {
		t.Fatal("the direct run retained no Records")
	}
	want := summarize(direct)
	sum.WallMS, want.WallMS = 0, 0
	if sum != want {
		t.Fatalf("stored summary diverges from a retained run:\n got %+v\nwant %+v", sum, want)
	}
}

// TestSubmitRunWithSpecJSONApps drives the explicit-workload path: the
// apps array travels in the same specjson form the CLI's -spec files
// use, including its field-level validation.
func TestSubmitRunWithSpecJSONApps(t *testing.T) {
	ts, _ := newTestServer(t, 2)
	body := `{
		"name": "two-apps", "policy": "NATIVE", "hours": 0.25,
		"apps": [
			{"name": "Mail", "period_s": 300, "alpha": 0.1, "hw": ["Wi-Fi"], "task_s": 5},
			{"name": "Chat", "period_s": 120, "alpha": 0.2, "hw": ["Wi-Fi"], "task_s": 3}
		]
	}`
	status, run := post(t, ts.URL+"/runs", body)
	if status != http.StatusAccepted {
		t.Fatalf("POST /runs = %d", status)
	}
	e := waitTerminal(t, ts.URL+"/runs/"+run.ID)
	if e.State != runstore.StateDone {
		t.Fatalf("state = %s (%s)", e.State, e.Error)
	}
	var sum RunSummary
	if err := json.Unmarshal(e.Result, &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Name != "two-apps" || sum.Policy != "NATIVE" {
		t.Fatalf("summary = %+v", sum)
	}
}

// fleetSpecJSON is the body used wherever a concrete fleet is needed;
// small horizon, small app mixes — quick but fully heterogeneous.
const fleetSpecJSON = `{"devices": 60, "seed": 17, "hours": 0.1, "apps": {"min": 1, "max": 2}}`

// directSummaryJSON runs the same spec through fleet.Run directly and
// marshals the summary exactly as the service does.
func directSummaryJSON(t *testing.T, specJSON string) []byte {
	t.Helper()
	spec, err := fleet.ReadSpec(strings.NewReader(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	r, err := fleet.Run(context.Background(), spec, fleet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(r.Agg.Summary())
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestFleetSummaryByteIdentity is the acceptance test: the aggregate
// fetched over HTTP must be byte-identical to a direct fleet.Run of the
// same spec — the service adds availability, not noise.
func TestFleetSummaryByteIdentity(t *testing.T) {
	ts, _ := newTestServer(t, 2)
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
		t.Fatalf("HTTP summary diverges from direct fleet.Run:\nhttp   %s\ndirect %s", e.Result, want)
	}
}

// TestFleetSSEMonotonicProgress is the 1k-device acceptance test: tail
// the event stream to completion and require (a) device events strictly
// monotonic in done, (b) a final aggregate snapshot byte-identical to
// the stored result, (c) a terminal done frame in state done.
func TestFleetSSEMonotonicProgress(t *testing.T) {
	if testing.Short() {
		t.Skip("1k-device fleet")
	}
	ts, _ := newTestServer(t, 2)
	spec := `{"devices": 1000, "seed": 5, "hours": 0.05, "apps": {"min": 1, "max": 2}}`
	status, run := post(t, ts.URL+"/fleets", spec)
	if status != http.StatusAccepted {
		t.Fatalf("POST /fleets = %d", status)
	}
	events := tailSSE(t, ts.URL+"/fleets/"+run.ID+"/events")
	if len(events) == 0 {
		t.Fatal("no SSE events")
	}

	lastDone, devices := 0, 0
	var lastSnapshot []byte
	var final *sseEvent
	for i := range events {
		ev := events[i]
		switch ev.Type {
		case "device":
			var d deviceData
			if err := json.Unmarshal(ev.Data, &d); err != nil {
				t.Fatal(err)
			}
			if d.Total != 1000 {
				t.Fatalf("device event total = %d, want 1000", d.Total)
			}
			if d.Done <= lastDone {
				t.Fatalf("device event done = %d after %d: not strictly monotonic", d.Done, lastDone)
			}
			lastDone = d.Done
			devices++
		case "snapshot":
			var s struct {
				Done    int             `json:"done"`
				Total   int             `json:"total"`
				Summary json.RawMessage `json:"summary"`
			}
			if err := json.Unmarshal(ev.Data, &s); err != nil {
				t.Fatal(err)
			}
			lastSnapshot = s.Summary
		case "done":
			final = &events[i]
		}
	}
	if devices == 0 {
		t.Fatal("no device progress events")
	}
	if final == nil {
		t.Fatal("no done frame")
	}
	var fin struct {
		State runstore.State `json:"state"`
	}
	if err := json.Unmarshal(final.Data, &fin); err != nil {
		t.Fatal(err)
	}
	if fin.State != runstore.StateDone {
		t.Fatalf("done frame state = %s, want done", fin.State)
	}

	// The final snapshot must equal the stored result byte for byte.
	e := waitTerminal(t, ts.URL+"/fleets/"+run.ID)
	if !bytes.Equal(lastSnapshot, e.Result) {
		t.Fatalf("final SSE snapshot diverges from the stored aggregate:\nsse    %.120s…\nstored %.120s…", lastSnapshot, e.Result)
	}
	var sum fleet.Summary
	if err := json.Unmarshal(e.Result, &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Devices != 1000 {
		t.Fatalf("stored aggregate covers %d devices, want 1000", sum.Devices)
	}
}

// TestSSEAfterCompletion: a subscriber attaching after the run finished
// still gets the terminal frames.
func TestSSEAfterCompletion(t *testing.T) {
	ts, _ := newTestServer(t, 2)
	_, run := post(t, ts.URL+"/fleets", fleetSpecJSON)
	waitTerminal(t, ts.URL+"/fleets/"+run.ID)

	events := tailSSE(t, ts.URL+"/fleets/"+run.ID+"/events")
	var sawSnapshot, sawDone bool
	for _, ev := range events {
		switch ev.Type {
		case "snapshot":
			sawSnapshot = true
		case "done":
			sawDone = true
		}
	}
	if !sawSnapshot || !sawDone {
		t.Fatalf("late subscriber missed terminal frames (snapshot %v, done %v) in %d events",
			sawSnapshot, sawDone, len(events))
	}
}

// TestCancelFleetLandsInCancelled is the regression test: DELETE while
// running must park the entry in cancelled — not failed — and keep the
// partial aggregate.
func TestCancelFleetLandsInCancelled(t *testing.T) {
	ts, _ := newTestServer(t, 2)
	// Big enough that cancellation lands mid-run.
	_, run := post(t, ts.URL+"/fleets", `{"devices": 100000, "seed": 2, "hours": 0.1, "apps": {"min": 1, "max": 2}}`)

	url := ts.URL + "/fleets/" + run.ID
	// Wait until it is actually running (first progress recorded).
	deadline := time.Now().Add(60 * time.Second)
	for {
		var e envelope
		getJSON(t, url, &e)
		if e.Done > 0 || e.State == runstore.StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("fleet never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	req, _ := http.NewRequest(http.MethodDelete, url, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE = %d, want 202", resp.StatusCode)
	}

	e := waitTerminal(t, url)
	if e.State != runstore.StateCancelled {
		t.Fatalf("state = %s (%s), want cancelled", e.State, e.Error)
	}

	// A second DELETE of a terminal run conflicts.
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("DELETE after terminal = %d, want 409", resp.StatusCode)
	}
}

func TestNotFoundAndKindMismatch(t *testing.T) {
	ts, _ := newTestServer(t, 2)
	_, run := post(t, ts.URL+"/fleets", fleetSpecJSON)

	cases := []struct {
		method, path string
		want         int
	}{
		{"GET", "/runs/r-999999", http.StatusNotFound},
		{"GET", "/fleets/f-999999", http.StatusNotFound},
		{"GET", "/runs/" + run.ID, http.StatusNotFound}, // fleet ID under /runs
		{"GET", "/fleets/" + run.ID + "x/events", http.StatusNotFound},
		{"DELETE", "/runs/" + run.ID, http.StatusNotFound},
		{"GET", "/runs/" + run.ID + "/events", http.StatusNotFound},
	}
	for _, c := range cases {
		req, _ := http.NewRequest(c.method, ts.URL+c.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s %s = %d, want %d", c.method, c.path, resp.StatusCode, c.want)
		}
	}
	waitTerminal(t, ts.URL+"/fleets/"+run.ID)
}

func TestBadSpecsRejected(t *testing.T) {
	ts, _ := newTestServer(t, 2)
	cases := []struct {
		name, path, body, wantErr string
	}{
		{"garbage run", "/runs", "not json", "decode"},
		{"unknown run field", "/runs", `{"bogus": 1}`, "bogus"},
		{"bad policy", "/runs", `{"policy": "BOGUS"}`, "unknown policy"},
		{"bad workload", "/runs", `{"workload": "gigantic"}`, "unknown workload"},
		{"workload and apps", "/runs", `{"workload": "light", "apps": [{"name":"A","period_s":60,"alpha":0,"hw":[],"task_s":1}]}`, "mutually exclusive"},
		{"negative hours", "/runs", `{"hours": -1}`, "hours"},
		{"huge hours", "/runs", `{"hours": 1e6}`, "hours"},
		{"bad app spec", "/runs", `{"apps": [{"name":"A","period_s":-5,"alpha":0,"hw":[],"task_s":1}]}`, "period"},
		{"bad beta", "/runs", `{"beta": -0.5}`, "beta"},
		{"beta one", "/runs", `{"beta": 1}`, "grace factor"},
		{"empty apps array", "/runs", `{"apps": []}`, "workload"},
		{"garbage fleet", "/fleets", "also not json", "decode"},
		{"unknown fleet field", "/fleets", `{"devices": 5, "bogus": 1}`, "bogus"},
		{"zero devices", "/fleets", `{"devices": 0}`, "device count"},
		{"bad fleet policy", "/fleets", `{"devices": 5, "test_policy": "NOPE"}`, "unknown policy"},
		{"inverted apps range", "/fleets", `{"devices": 5, "apps": {"min": 9, "max": 2}}`, "min > max"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+c.path, "application/json", strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			blob, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("POST %s = %d (%s), want 400", c.path, resp.StatusCode, blob)
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(blob, &e); err != nil || !strings.Contains(e.Error, c.wantErr) {
				t.Fatalf("error %q does not name %q", blob, c.wantErr)
			}
		})
	}
}

// TestConcurrentFleetSubmissions submits several distinct fleets at
// once and requires every aggregate to be byte-identical to its direct
// fleet.Run — concurrency in the store must never bleed between runs.
// Run under -race by make verify.
func TestConcurrentFleetSubmissions(t *testing.T) {
	ts, _ := newTestServer(t, 3)
	specFor := func(seed int) string {
		return fmt.Sprintf(`{"devices": 40, "seed": %d, "hours": 0.1, "apps": {"min": 1, "max": 2}}`, seed)
	}
	const fleets = 5
	ids := make([]string, fleets)
	var wg sync.WaitGroup
	for i := 0; i < fleets; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, run := post(t, ts.URL+"/fleets", specFor(i))
			if status != http.StatusAccepted {
				t.Errorf("fleet %d: POST = %d", i, status)
				return
			}
			ids[i] = run.ID
		}(i)
	}
	wg.Wait()
	for i, id := range ids {
		if id == "" {
			continue
		}
		e := waitTerminal(t, ts.URL+"/fleets/"+id)
		if e.State != runstore.StateDone {
			t.Fatalf("fleet %d: state = %s (%s)", i, e.State, e.Error)
		}
		if want := directSummaryJSON(t, specFor(i)); !bytes.Equal(e.Result, want) {
			t.Fatalf("fleet %d diverges from direct run:\nhttp   %.160s…\ndirect %.160s…", i, e.Result, want)
		}
	}
}

func TestListAndHealth(t *testing.T) {
	ts, _ := newTestServer(t, 2)
	_, r1 := post(t, ts.URL+"/runs", `{"workload": "light", "hours": 0.25}`)
	_, f1 := post(t, ts.URL+"/fleets", fleetSpecJSON)
	waitTerminal(t, ts.URL+"/runs/"+r1.ID)
	waitTerminal(t, ts.URL+"/fleets/"+f1.ID)

	var list struct {
		Runs []runstore.Run `json:"runs"`
	}
	if status, _ := getJSON(t, ts.URL+"/runs", &list); status != http.StatusOK {
		t.Fatalf("GET /runs = %d", status)
	}
	if len(list.Runs) != 2 {
		t.Fatalf("GET /runs listed %d entries, want 2", len(list.Runs))
	}
	for _, r := range list.Runs {
		if r.Result != nil {
			t.Fatalf("listing leaked a result for %s", r.ID)
		}
	}

	var fleets struct {
		Runs []runstore.Run `json:"runs"`
	}
	getJSON(t, ts.URL+"/fleets", &fleets)
	if len(fleets.Runs) != 1 || fleets.Runs[0].Kind != "fleet" {
		t.Fatalf("GET /fleets = %+v", fleets.Runs)
	}

	var health struct {
		OK     bool `json:"ok"`
		Active int  `json:"active"`
	}
	if status, _ := getJSON(t, ts.URL+"/healthz", &health); status != http.StatusOK || !health.OK {
		t.Fatalf("healthz = %d %+v", status, health)
	}
}

// TestSSEHeartbeatOnIdleStream: a queued run publishes nothing until an
// execution slot frees, so its event stream goes byte-silent — exactly
// what idle-timeout proxies kill. The stream must carry ": heartbeat"
// comment frames through the silence, and the terminal frames must
// still arrive once the run executes: keep-alives never displace the
// guaranteed "done" delivery.
func TestSSEHeartbeatOnIdleStream(t *testing.T) {
	store := runstore.New(1)
	ts := httptest.NewServer(New(store, Options{heartbeat: 20 * time.Millisecond}))
	t.Cleanup(func() {
		ts.Close()
		store.CancelAll()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		store.Drain(ctx)
	})

	// Park a huge fleet in the only slot, then queue a quick run behind
	// it: the queued run's stream stays idle for as long as we need.
	_, parked := post(t, ts.URL+"/fleets", `{"devices": 1000000, "seed": 1, "hours": 1}`)
	_, queued := post(t, ts.URL+"/runs", `{"workload": "light", "hours": 0.1, "seed": 2}`)

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/runs/"+queued.ID+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET events = %d", resp.StatusCode)
	}

	heartbeats, sawDone, released := 0, false, false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		switch line := sc.Text(); {
		case line == ": heartbeat":
			heartbeats++
		case strings.HasPrefix(line, "event: done"):
			sawDone = true
		}
		if heartbeats >= 3 && !released {
			// Silence observed; free the slot so the queued run can
			// execute and the stream can end with its terminal frames.
			released = true
			del, _ := http.NewRequest(http.MethodDelete, ts.URL+"/fleets/"+parked.ID, nil)
			dresp, err := http.DefaultClient.Do(del)
			if err != nil {
				t.Fatal(err)
			}
			dresp.Body.Close()
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("tail events: %v", err)
	}
	if heartbeats < 3 {
		t.Fatalf("idle stream carried %d heartbeats, want >= 3", heartbeats)
	}
	if !sawDone {
		t.Fatal("stream ended without the terminal done frame")
	}
	if e := waitTerminal(t, ts.URL+"/runs/"+queued.ID); e.State != runstore.StateDone {
		t.Fatalf("queued run landed in %s (%s), want done", e.State, e.Error)
	}
}

// TestReadyzFlipsOnDrain: /readyz is the readiness probe — 200 while
// the store accepts work, 503 the moment it starts draining — while
// /healthz (liveness) stays 200 throughout, so a load balancer can pull
// a draining daemon out of rotation without the supervisor killing it.
func TestReadyzFlipsOnDrain(t *testing.T) {
	store := runstore.New(1)
	ts := httptest.NewServer(New(store, Options{}))
	defer ts.Close()

	var ready struct {
		Ready    bool `json:"ready"`
		Draining bool `json:"draining"`
	}
	if status, _ := getJSON(t, ts.URL+"/readyz", &ready); status != http.StatusOK || !ready.Ready {
		t.Fatalf("readyz before drain = %d %+v, want 200 ready", status, ready)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	store.Drain(ctx)

	status, blob := getJSON(t, ts.URL+"/readyz", nil)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining = %d (%s), want 503", status, blob)
	}
	if err := json.Unmarshal(blob, &ready); err != nil {
		t.Fatal(err)
	}
	if ready.Ready || !ready.Draining {
		t.Fatalf("readyz body while draining = %+v", ready)
	}

	// Liveness is unaffected: the daemon is healthy, just not accepting.
	var health struct {
		OK bool `json:"ok"`
	}
	if status, _ := getJSON(t, ts.URL+"/healthz", &health); status != http.StatusOK || !health.OK {
		t.Fatalf("healthz while draining = %d %+v, want 200 ok", status, health)
	}
}

// TestSubmitAfterDrainRejected: a draining store answers 503, the
// shutdown contract the daemon relies on.
func TestSubmitAfterDrainRejected(t *testing.T) {
	store := runstore.New(1)
	ts := httptest.NewServer(New(store, Options{}))
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	store.Drain(ctx)
	status, _ := post(t, ts.URL+"/runs", `{"workload": "light"}`)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("POST after drain = %d, want 503", status)
	}
}

// panicPolicy stands in for a buggy registered policy, as fleet's
// FLEET-PANIC does: its first Select panics mid-run.
type panicPolicy struct{}

func (panicPolicy) Name() string { return "HTTPAPI-PANIC" }
func (panicPolicy) Select([]*alarm.Entry, *alarm.Alarm, simclock.Time) int {
	panic("poisoned policy")
}

// runGate holds an HTTPAPI-GATE run in its first Select until the test
// that armed it opens it, so the test acts on a run that is certainly
// executing.
type runGate struct {
	entered, open chan struct{}
	once          sync.Once
}

// gate is the runGate the next HTTPAPI-GATE run takes.
var gate atomic.Pointer[runGate]

type gatePolicy struct{ g *runGate }

func (gatePolicy) Name() string { return "HTTPAPI-GATE" }
func (p gatePolicy) Select([]*alarm.Entry, *alarm.Alarm, simclock.Time) int {
	p.g.once.Do(func() { close(p.g.entered) })
	<-p.g.open
	return -1
}

func init() {
	alarm.MustRegister("HTTPAPI-PANIC", func(alarm.PolicyContext) (alarm.Policy, error) { return panicPolicy{}, nil })
	alarm.MustRegister("HTTPAPI-GATE", func(alarm.PolicyContext) (alarm.Policy, error) { return gatePolicy{gate.Load()}, nil })
}

// TestCancelRunningRunLandsInCancelled: a single run DELETEd while
// sim.RunContext executes it lands cancelled with no result, as a fleet
// does, also when the run, held inside its first hour, goes on to its
// horizon after the DELETE.
func TestCancelRunningRunLandsInCancelled(t *testing.T) {
	ts, _ := newTestServer(t, 1)
	g := &runGate{entered: make(chan struct{}), open: make(chan struct{})}
	gate.Store(g)
	open := sync.OnceFunc(func() { close(g.open) })
	t.Cleanup(open) // before the server's cleanup drains the store
	status, run := post(t, ts.URL+"/runs", `{"workload": "light", "hours": 0.25, "policy": "HTTPAPI-GATE"}`)
	if status != http.StatusAccepted {
		t.Fatalf("POST /runs = %d", status)
	}
	select {
	case <-g.entered:
	case <-time.After(60 * time.Second):
		t.Fatal("run never reached its policy")
	}
	url := ts.URL + "/runs/" + run.ID
	req, _ := http.NewRequest(http.MethodDelete, url, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE = %d, want 202", resp.StatusCode)
	}
	open()
	e := waitTerminal(t, url)
	if e.State != runstore.StateCancelled || (len(e.Result) != 0 && string(e.Result) != "null") {
		t.Fatalf("state = %s (%s), result %s; want cancelled with no result", e.State, e.Error, e.Result)
	}
}

// TestCancelStopsLongRun: a DELETE stops a running 10,000 h heavy run
// (about 1.7 s of work, far more under -race) where it is: it lands
// cancelled with no result, and the run queued behind it on the one
// slot starts within 100 ms of the DELETE.
func TestCancelStopsLongRun(t *testing.T) {
	ts, store := newTestServer(t, 1)
	status, long := post(t, ts.URL+"/runs", `{"workload": "heavy", "hours": 10000}`)
	if status != http.StatusAccepted {
		t.Fatalf("POST /runs = %d", status)
	}
	for {
		if r, err := store.Get(long.ID); err != nil || r.State != runstore.StatePending {
			if err != nil || r.State != runstore.StateRunning {
				t.Fatalf("long run: %v, state %s before the DELETE", err, r.State)
			}
			break
		}
		time.Sleep(time.Millisecond)
	}
	_, next := post(t, ts.URL+"/runs", `{"workload": "light", "hours": 0.25}`)
	deleted := time.Now()
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/runs/"+long.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if e := waitTerminal(t, ts.URL+"/runs/"+long.ID); e.State != runstore.StateCancelled || (len(e.Result) != 0 && string(e.Result) != "null") {
		t.Fatalf("long run = %s (%s), result %.100s; want cancelled with no result", e.State, e.Error, e.Result)
	}
	if e := waitTerminal(t, ts.URL+"/runs/"+next.ID); e.State != runstore.StateDone {
		t.Fatalf("queued run = %s (%s), want done", e.State, e.Error)
	}
	r, err := store.Get(next.ID)
	if err != nil {
		t.Fatal(err)
	}
	if wait := r.Started.Sub(deleted); wait > 100*time.Millisecond {
		t.Fatalf("the queued run started %v after the DELETE, want within 100ms", wait)
	}
}

// TestPanickingRunFailsAlone: a run whose policy panics lands in failed
// with the panic value in its error, and the server goes on to run the
// next submission.
func TestPanickingRunFailsAlone(t *testing.T) {
	ts, _ := newTestServer(t, 1)
	status, bad := post(t, ts.URL+"/runs", `{"workload": "light", "hours": 0.25, "policy": "HTTPAPI-PANIC"}`)
	if status != http.StatusAccepted {
		t.Fatalf("POST /runs = %d", status)
	}
	e := waitTerminal(t, ts.URL+"/runs/"+bad.ID)
	if e.State != runstore.StateFailed || !strings.Contains(e.Error, "poisoned policy") {
		t.Fatalf("panicking run = %s (%.200q), want failed naming the panic", e.State, e.Error)
	}
	_, good := post(t, ts.URL+"/runs", `{"workload": "light", "hours": 0.25}`)
	if e := waitTerminal(t, ts.URL+"/runs/"+good.ID); e.State != runstore.StateDone {
		t.Fatalf("run after the panic = %s (%s), want done", e.State, e.Error)
	}
}

// TestSSEStateFrameBytes pins the bytes of a finished run's whole
// stream: its opening state frame and its done frame carry the keys in
// sorted order, error first when there is one.
func TestSSEStateFrameBytes(t *testing.T) {
	ts, store := newTestServer(t, 1)
	ok, _ := store.Submit("run", func(ctx context.Context, h runstore.Handle) (any, error) { return "fine", nil })
	failed, _ := store.Submit("run", func(ctx context.Context, h runstore.Handle) (any, error) {
		return nil, errors.New(`boom <"quoted">`)
	})
	for _, c := range []struct {
		id, frame string
	}{
		{ok.ID, `{"id":"r-000001","state":"done"}`},
		{failed.ID, `{"error":"boom \u003c\"quoted\"\u003e","id":"r-000002","state":"failed"}`},
	} {
		waitTerminal(t, ts.URL+"/runs/"+c.id)
		resp, err := http.Get(ts.URL + "/runs/" + c.id + "/events")
		if err != nil {
			t.Fatal(err)
		}
		blob, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		want := "event: state\ndata: " + c.frame + "\n\nevent: done\ndata: " + c.frame + "\n\n"
		if string(blob) != want {
			t.Errorf("stream of %s:\n got %q\nwant %q", c.id, blob, want)
		}
	}
}

// TestSSEDoneFrameCountsDropped: every event published while a stream
// is open either reaches it as a frame or is counted in the done
// frame's "dropped". The exec publishes 5,000 device events as fast as
// it can, faster than the stream writes them.
func TestSSEDoneFrameCountsDropped(t *testing.T) {
	const devices = 5000
	ts, store := newTestServer(t, 1)
	// Hold the only slot until the stream is open, so the stream sees
	// the run from its running state on.
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
	run, err := store.Submit("fleet", func(ctx context.Context, h runstore.Handle) (any, error) {
		for i := 1; i <= devices; i++ {
			h.Publish(runstore.Event{Type: "device", Data: deviceData{Done: i, Total: devices}})
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/fleets/" + run.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	close(release)
	events := readSSE(t, resp)
	last := events[len(events)-1]
	if last.Type != "done" {
		t.Fatalf("stream ended on %q", last.Type)
	}
	var done struct {
		Dropped int            `json:"dropped"`
		State   runstore.State `json:"state"`
	}
	if err := json.Unmarshal(last.Data, &done); err != nil {
		t.Fatal(err)
	}
	if done.State != runstore.StateDone {
		t.Fatalf("done frame state = %s", done.State)
	}
	// Between the opening state frame and the done frame: what the
	// subscription delivered of the running state, the device events and
	// the done state.
	delivered, devicesSeen, lastDone := len(events)-2, 0, 0
	for _, ev := range events[1 : len(events)-1] {
		if ev.Type != "device" {
			continue
		}
		var d deviceData
		if err := json.Unmarshal(ev.Data, &d); err != nil {
			t.Fatal(err)
		}
		if d.Done <= lastDone {
			t.Fatalf("device event done = %d after %d", d.Done, lastDone)
		}
		lastDone = d.Done
		devicesSeen++
	}
	if delivered+done.Dropped != devices+2 {
		t.Fatalf("%d frames delivered + %d dropped, want the %d events published", delivered, done.Dropped, devices+2)
	}
	t.Logf("%d of %d device events delivered, %d events dropped", devicesSeen, devices, done.Dropped)
}
