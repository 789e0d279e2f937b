package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"repro/internal/fleet"
	"repro/internal/httpapi"
	"repro/internal/runstore"
	"repro/internal/sim"
)

// The service-mixed schedule: EXPERIMENTS.md "Service latency"'s request
// bodies, offered open loop over at most serviceConns connections, a
// heavy run every runEvery and a 100-device fleet every fleetEvery. No
// measured production mix exists. At these rates a fleet (0.1-0.3 s, its
// pool holding both cores) overlaps a share of the runs, so runs and
// fleets contend for the cores as on a shared service. The overlap shows
// in latency_ms_p90 and service.run_ms_p99. Request seeds rotate through
// runSeeds and fleetSeeds values, so the set-up can simulate every
// distinct request directly as the reference its responses must equal.
const (
	serviceConns = 2
	runEvery     = 10 * time.Millisecond
	fleetEvery   = time.Second
	runSeeds     = 16
	fleetSeeds   = 4
	// lateAfter is how far past its due time a send counts as late.
	lateAfter = time.Millisecond
)

// request is one scheduled submission and what its client observed.
type request struct {
	kind string // "run" or "fleet"
	key  int    // which of its kind's rotating seeds the body carries
	body string
	due  time.Duration // offset from the session start

	dueAt, sent, accepted, done time.Time
	id                          string
	frames, deviceFrames, bytes int
	snapshot                    []byte // last SSE snapshot's data line (fleets)
	finalState                  string // state carried by the done frame
	err                         error
}

// service is one running httpapi server over a fresh run store, and a
// client limited to serviceConns connections.
type service struct {
	store  *runstore.Store
	srv    *httptest.Server
	client *http.Client
}

func startService() *service {
	store := runstore.New(0)
	tr := &http.Transport{MaxConnsPerHost: serviceConns, MaxIdleConnsPerHost: serviceConns}
	return &service{
		store:  store,
		srv:    httptest.NewServer(httpapi.New(store, httpapi.Options{})),
		client: &http.Client{Transport: tr},
	}
}

// stop closes the listener and waits for every execution to land.
func (s *service) stop() error {
	s.srv.Close()
	s.client.CloseIdleConnections()
	return s.store.Drain(context.Background())
}

// submit posts the request, then tails its SSE stream until the done
// frame, accounting frames and bytes.
func (s *service) submit(r *request) {
	r.sent = time.Now()
	r.err = s.post(r)
	if r.err == nil {
		r.err = s.tail(r)
	}
	r.done = time.Now()
}

func (s *service) post(r *request) error {
	resp, err := s.client.Post(s.srv.URL+"/"+r.kind+"s", "application/json", strings.NewReader(r.body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var run struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&run)
	io.Copy(io.Discard, resp.Body)
	r.accepted = time.Now()
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("POST /%ss: status %d", r.kind, resp.StatusCode)
	}
	r.id = run.ID
	return err
}

func (s *service) tail(r *request) error {
	resp, err := s.client.Get(s.srv.URL + "/" + r.kind + "s/" + r.id + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	event := ""
	for sc.Scan() {
		line := sc.Bytes()
		r.bytes += len(line) + 1
		if ev, ok := bytes.CutPrefix(line, []byte("event: ")); ok {
			event = string(ev)
			continue
		}
		data, ok := bytes.CutPrefix(line, []byte("data: "))
		if !ok {
			continue
		}
		r.frames++
		switch event {
		case "device":
			r.deviceFrames++
		case "snapshot":
			r.snapshot = append(r.snapshot[:0], data...)
		case "done":
			var st struct {
				State string `json:"state"`
			}
			if err := json.Unmarshal(data, &st); err != nil {
				return err
			}
			r.finalState = st.State
		}
	}
	return sc.Err()
}

// session offers the requests open loop: every request is sent at its due
// time by whichever of serviceConns senders is free, so a stalled service
// delays later sends, which their latency (from due time) includes.
func (s *service) session(reqs []*request) {
	jobs := make(chan *request, len(reqs))
	for _, r := range reqs {
		jobs <- r
	}
	close(jobs)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < serviceConns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range jobs {
				r.dueAt = start.Add(r.due)
				time.Sleep(time.Until(r.dueAt))
				s.submit(r)
			}
		}()
	}
	wg.Wait()
}

func runBody(seed int64) string {
	return fmt.Sprintf(`{"workload":"heavy","hours":3,"seed":%d}`, seed)
}

func fleetBody(devices int, seed int64) string {
	return fmt.Sprintf(`{"devices":%d,"hours":3,"seed":%d}`, devices, seed)
}

// schedule builds the requests of a window of length d: a run every
// runEvery and a fleet every fleetEvery, both from 0, with seeds rotating
// from seed.
func schedule(d time.Duration, seed int64, fleetDevices int) []*request {
	var reqs []*request
	for at, k := time.Duration(0), 0; at < d; at, k = at+runEvery, k+1 {
		if at%fleetEvery == 0 {
			f := int(at/fleetEvery) % fleetSeeds
			reqs = append(reqs, &request{kind: "fleet", key: f, due: at, body: fleetBody(fleetDevices, seed+int64(f))})
		}
		r := k % runSeeds
		reqs = append(reqs, &request{kind: "run", key: r, due: at, body: runBody(seed + int64(r))})
	}
	return reqs
}

// serviceRef is what every distinct request of a session must return:
// the stored summary of each run seed and the fleet summary of each fleet
// seed, simulated directly.
type serviceRef struct {
	Runs   []httpapi.RunSummary
	Fleets []json.RawMessage
}

func serviceReference(seed int64, fleetDevices int) (serviceRef, error) {
	var ref serviceRef
	for i := 0; i < runSeeds; i++ {
		cfg, err := runConfig(runBody(seed + int64(i)))
		if err != nil {
			return ref, err
		}
		r, err := sim.Run(cfg)
		if err != nil {
			return ref, err
		}
		ref.Runs = append(ref.Runs, runSummary(r))
	}
	for i := 0; i < fleetSeeds; i++ {
		spec, err := fleet.ReadSpec(strings.NewReader(fleetBody(fleetDevices, seed+int64(i))))
		if err != nil {
			return ref, err
		}
		sum, err := runInProcess(spec, fleet.Options{})
		if err != nil {
			return ref, err
		}
		ref.Fleets = append(ref.Fleets, sum)
	}
	return ref, nil
}

// runSummary is the stored form of a direct run, as httpapi stores it,
// without the wall time.
func runSummary(r *sim.Result) httpapi.RunSummary {
	return httpapi.RunSummary{
		Name:               r.Config.Name,
		Policy:             r.PolicyName,
		EnergyMJ:           r.Energy.TotalMJ(),
		AveragePowerMW:     r.Energy.AveragePowerMW(),
		StandbyHours:       r.StandbyHours,
		Wakeups:            r.FinalWakeups,
		Deliveries:         r.DelaysAll.PerceptibleN + r.DelaysAll.ImperceptibleN,
		Pushes:             r.Pushes,
		PerceptibleDelay:   r.Delays.PerceptibleMean,
		ImperceptibleDelay: r.Delays.ImperceptibleMean,
	}
}

// runService is service-mixed. The set-up starts a fresh server, warms it
// with a few sequential requests, and simulates every distinct request
// directly. Every stream must end in a done frame with state done, every
// fleet's final SSE snapshot must equal its direct fleet.Run byte for
// byte, and every run's stored summary must equal its direct sim.Run.
func runService(b *bench) error {
	fleetDevices := 100
	if b.short {
		fleetDevices = 8
	}
	var svc *service
	var ref serviceRef
	err := b.setup(func(rep int) error {
		if svc != nil {
			if err := svc.stop(); err != nil {
				return err
			}
		}
		svc = startService()
		for _, r := range schedule(5*runEvery, b.seed, fleetDevices/8) {
			svc.submit(r)
			if r.err != nil {
				return r.err
			}
		}
		got, err := serviceReference(b.seed, fleetDevices)
		if err != nil {
			return err
		}
		if rep > 0 {
			b.verify(equalJSON(got, ref), "set-up repetition %d: direct references differ from the first", rep)
		}
		ref = got
		return nil
	})
	if err != nil {
		return err
	}
	defer svc.stop()

	var all []*request
	err = b.measure(1, func(_ bool, d time.Duration) ([]float64, int, error) {
		reqs := schedule(d, b.seed, fleetDevices)
		svc.session(reqs)
		lat := make([]float64, 0, len(reqs))
		runs := 0
		for _, r := range reqs {
			lat = append(lat, ms(r.done.Sub(r.dueAt)))
			if r.kind == "fleet" {
				runs += 2 * fleetDevices
			} else {
				runs++
			}
		}
		all = append(all, reqs...)
		return lat, runs, nil
	})
	if err != nil {
		return err
	}
	return b.checkService(svc, all, ref, fleetDevices)
}

// equalJSON reports whether a and b marshal to the same bytes.
func equalJSON(a, b any) bool {
	x, errX := json.Marshal(a)
	y, errY := json.Marshal(b)
	return errX == nil && errY == nil && bytes.Equal(x, y)
}

// storedRun is the part of a GET /{kind}s/{id} answer the checks read.
type storedRun struct {
	Created  time.Time       `json:"created"`
	Started  time.Time       `json:"started"`
	Finished time.Time       `json:"finished"`
	Result   json.RawMessage `json:"result"`
}

func (s *service) get(r *request) (storedRun, error) {
	var run storedRun
	resp, err := s.client.Get(s.srv.URL + "/" + r.kind + "s/" + r.id)
	if err != nil {
		return run, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&run)
	return run, err
}

func (b *bench) checkService(svc *service, reqs []*request, ref serviceRef, fleetDevices int) error {
	type class struct {
		submitToDone, accept, queueWait, exec []float64
	}
	classes := map[string]*class{"run": {}, "fleet": {}}
	type body struct {
		kind string
		key  int
	}
	best := map[body]float64{}
	late := 0
	var frames, kb, loss float64
	fleets := 0
	for _, r := range reqs {
		b.verify(r.err == nil && r.finalState == string(runstore.StateDone),
			"%s %s: stream ended in state %q (error %v)", r.kind, r.body, r.finalState, r.err)
		if r.err != nil {
			continue
		}
		stored, err := svc.get(r)
		if err != nil {
			return err
		}
		c := classes[r.kind]
		lat := ms(r.done.Sub(r.dueAt))
		c.submitToDone = append(c.submitToDone, lat)
		c.accept = append(c.accept, ms(r.accepted.Sub(r.sent)))
		c.queueWait = append(c.queueWait, ms(stored.Started.Sub(stored.Created)))
		c.exec = append(c.exec, ms(stored.Finished.Sub(stored.Started)))
		if k := (body{r.kind, r.key}); best[k] == 0 || lat < best[k] {
			best[k] = lat
		}
		if r.sent.Sub(r.dueAt) > lateAfter {
			late++
		}
		switch r.kind {
		case "fleet":
			fleets++
			frames += float64(r.frames)
			kb += float64(r.bytes) / 1024
			loss += 1 - float64(r.deviceFrames)/float64(fleetDevices)
			var snap struct {
				Summary json.RawMessage `json:"summary"`
			}
			if err := json.Unmarshal(r.snapshot, &snap); err != nil {
				return fmt.Errorf("fleet %s: final snapshot: %w", r.id, err)
			}
			b.verify(bytes.Equal(snap.Summary, ref.Fleets[r.key]), "fleet %s: SSE summary differs from a direct fleet.Run", r.body)
		case "run":
			var got httpapi.RunSummary
			if err := json.Unmarshal(stored.Result, &got); err != nil {
				return fmt.Errorf("run %s: result: %w", r.id, err)
			}
			got.WallMS = 0
			b.verify(got == ref.Runs[r.key], "run %s: stored result differs from a direct sim.Run", r.body)
		}
	}
	blob, err := json.Marshal(ref)
	if err != nil {
		return err
	}
	b.digest(blob)

	var bests []float64
	for _, v := range best {
		bests = append(bests, v)
	}
	b.emit("latency_ms_best", quantile(bests, 0.5), "ms", len(bests))
	run, fl := classes["run"], classes["fleet"]
	b.emit("run_submit_to_done_ms_p50", quantile(run.submitToDone, 0.5), "ms", len(run.submitToDone))
	b.emit("run_submit_to_done_ms_p90", quantile(run.submitToDone, 0.9), "ms", len(run.submitToDone))
	b.emit("fleet_submit_to_done_ms_p50", quantile(fl.submitToDone, 0.5), "ms", len(fl.submitToDone))
	if !b.trace {
		return nil
	}
	for _, k := range []string{"run", "fleet"} {
		c := classes[k]
		n := len(c.accept)
		b.emit("httpapi.accept_ms_p50."+k, quantile(c.accept, 0.5), "ms", n)
		b.emit("runstore.queue_wait_ms_p50."+k, quantile(c.queueWait, 0.5), "ms", n)
		b.emit("runstore.exec_ms_p50."+k, quantile(c.exec, 0.5), "ms", n)
	}
	b.emit("httpapi.sse_frames_per_fleet", frames/float64(fleets), "count", fleets)
	b.emit("httpapi.sse_kb_per_fleet", kb/float64(fleets), "KB", fleets)
	b.emit("httpapi.sse_device_frame_loss", loss/float64(fleets), "frac", fleets)
	b.emit("service.late_frac", float64(late)/float64(len(reqs)), "frac", len(reqs))
	b.emit("service.run_ms_p99", quantile(run.submitToDone, 0.99), "ms", len(run.submitToDone))

	var sample []sim.Config
	for i := 0; i < runSeeds; i++ {
		cfg, err := runConfig(runBody(b.seed + int64(i)))
		if err != nil {
			return err
		}
		cfg.NoTrace = true
		sample = append(sample, cfg)
	}
	spec, err := fleet.ReadSpec(strings.NewReader(fleetBody(fleetDevices, b.seed)))
	if err != nil {
		return err
	}
	return b.replayLayers(append(sample, fleetSample(spec, 8)...))
}

// runConfig resolves a run request body the way the service does.
func runConfig(body string) (sim.Config, error) {
	var spec httpapi.RunSpec
	if err := json.Unmarshal([]byte(body), &spec); err != nil {
		return sim.Config{}, err
	}
	return spec.Config()
}
