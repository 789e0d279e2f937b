// Package httpapi is wakesimd's HTTP surface: submit single-device runs
// and whole-fleet specs, fetch stored results, cancel in-flight work,
// and tail per-device progress plus live aggregate snapshots over
// Server-Sent Events. State lives in an internal/runstore Store. A run
// executes on the run pool (sim.RunAll) and a fleet through
// shardexec.Run — in this process, or across worker processes when
// Options.Procs > 0 — so everything the library guarantees —
// determinism, byte-identical aggregates, partial results on failure —
// holds verbatim for results fetched over HTTP.
//
//	POST   /runs               submit one device run (RunSpec JSON)
//	POST   /fleets             submit a fleet (fleet.Spec JSON)
//	GET    /runs               list everything (runs and fleets)
//	GET    /fleets             list fleets only
//	GET    /runs/{id}          fetch a run (result once done)
//	GET    /fleets/{id}        fetch a fleet (aggregate once done)
//	DELETE /runs/{id}          cancel (also /fleets/{id})
//	GET    /runs/{id}/events   SSE: state transitions
//	GET    /fleets/{id}/events SSE: per-device progress, aggregate
//	                           snapshots, final summary, and per-run
//	                           progress in process or per-shard worker
//	                           lifecycle events across processes
//	                           (Options.Procs > 0)
//	GET    /healthz            liveness + store occupancy
//	GET    /readyz             readiness: 503 once the store is draining
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/fleet"
	"repro/internal/runstore"
	"repro/internal/shardexec"
	"repro/internal/sim"
)

// Options tune the service.
type Options struct {
	// Workers bounds each execution's run pool; ≤ 0 means GOMAXPROCS.
	Workers int
	// SnapshotEvery is the fold interval between SSE aggregate
	// snapshots; ≤ 0 means fleet.DefaultSnapshotEvery.
	SnapshotEvery int
	// MaxBody bounds request bodies in bytes; ≤ 0 means 1 MiB.
	MaxBody int64
	// Procs, when > 0, executes fleets across that many supervised
	// worker processes (internal/shardexec) instead of in process:
	// crashed workers are retried, the SSE stream carries "shard"
	// lifecycle events in place of "run" events, and the summary stays
	// byte-identical.
	Procs int

	// heartbeat and shardSize are test seams: ≤ 0 means DefaultHeartbeat
	// and shardexec.DefaultShardSize.
	heartbeat time.Duration
	shardSize int
}

// DefaultHeartbeat is the idle interval between SSE keep-alive comment
// frames. A queued run publishes nothing until a slot frees, and
// proxies tear down streams that stay byte-silent — the comment frames
// keep the connection alive without adding events a client has to
// parse. 15 s is short enough for common proxy idle timeouts (30–60 s)
// and long enough to cost nothing.
const DefaultHeartbeat = 15 * time.Second

// Server routes the HTTP surface onto a run store.
type Server struct {
	store *runstore.Store
	opts  Options
	mux   *http.ServeMux
}

// New assembles the service around an existing store (the daemon owns
// the store so shutdown can drain it independently of the listener).
func New(store *runstore.Store, opts Options) *Server {
	if opts.MaxBody <= 0 {
		opts.MaxBody = 1 << 20
	}
	if opts.heartbeat <= 0 {
		opts.heartbeat = DefaultHeartbeat
	}
	s := &Server{store: store, opts: opts, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /runs", s.submitRun)
	s.mux.HandleFunc("POST /fleets", s.submitFleet)
	s.mux.HandleFunc("GET /runs", s.list(""))
	s.mux.HandleFunc("GET /fleets", s.list("fleet"))
	s.mux.HandleFunc("GET /runs/{id}", s.get("run"))
	s.mux.HandleFunc("GET /fleets/{id}", s.get("fleet"))
	s.mux.HandleFunc("DELETE /runs/{id}", s.cancel("run"))
	s.mux.HandleFunc("DELETE /fleets/{id}", s.cancel("fleet"))
	s.mux.HandleFunc("GET /runs/{id}/events", s.events("run"))
	s.mux.HandleFunc("GET /fleets/{id}/events", s.events("fleet"))
	s.mux.HandleFunc("GET /healthz", s.healthz)
	s.mux.HandleFunc("GET /readyz", s.readyz)
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// writeJSON emits one JSON response; encoding a value we built cannot
// fail in a way the client can still be told about, so errors only stop
// the write.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// decode parses a bounded JSON request body, rejecting unknown fields —
// a misspelled knob must be a 400, not a silently defaulted run.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) error {
	body := http.MaxBytesReader(w, r.Body, s.opts.MaxBody)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decode request: %w", err)
	}
	return nil
}

// submit registers work and answers 202 with the pending entry.
func (s *Server) submit(w http.ResponseWriter, kind string, exec runstore.Exec) {
	run, err := s.store.Submit(kind, exec)
	if err != nil {
		// Only Close/Drain makes Submit fail: the daemon is shutting
		// down.
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	w.Header().Set("Location", fmt.Sprintf("/%ss/%s", kind, run.ID))
	writeJSON(w, http.StatusAccepted, run)
}

// submitRun accepts a single-device spec via the specjson path and
// executes it on the run pool (one run: context cancellation and panic
// isolation come with the pool). The run keeps no Records: summarize
// reads only the metrics a NoTrace run streams.
func (s *Server) submitRun(w http.ResponseWriter, r *http.Request) {
	var spec RunSpec
	if err := s.decode(w, r, &spec); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	cfg, err := spec.Config()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	cfg.NoTrace = true
	s.submit(w, "run", func(ctx context.Context, h runstore.Handle) (any, error) {
		h.SetProgress(0, 1)
		rs, err := sim.RunAll(ctx, []sim.Config{cfg}, sim.RunAllOptions{Workers: s.opts.Workers})
		if err != nil {
			return nil, err
		}
		h.SetProgress(1, 1)
		return summarize(rs[0]), nil
	})
}

// submitFleet accepts a fleet.Spec and queues it for fleetExec.
func (s *Server) submitFleet(w http.ResponseWriter, r *http.Request) {
	// fleet.ReadSpec is the one decode+default+validate path for fleet
	// specs — the service accepts exactly what wakesim -fleet accepts,
	// including the unknown-field rejection.
	spec, err := fleet.ReadSpec(http.MaxBytesReader(w, r.Body, s.opts.MaxBody))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
		return
	}
	s.submit(w, "fleet", s.fleetExec(spec))
}

// deviceData is the payload of "device" SSE events.
type deviceData struct {
	Done  int `json:"done"`
	Total int `json:"total"`
}

// runData is the payload of "run" SSE events: one underlying simulation
// run's completion in fleet-global coordinates.
type runData struct {
	Index  int     `json:"index"`
	Done   int     `json:"done"`
	Total  int     `json:"total"`
	Name   string  `json:"name"`
	WallMS float64 `json:"wall_ms"`
}

// snapshotData wraps a live aggregate with its fold position.
type snapshotData struct {
	Done    int           `json:"done"`
	Total   int           `json:"total"`
	Summary fleet.Summary `json:"summary"`
}

// shardData is the payload of "shard" SSE events: one transition in a
// worker-process shard's lifecycle (sharded executions only).
type shardData struct {
	Index   int    `json:"index"`
	Lo      int    `json:"lo"`
	Hi      int    `json:"hi"`
	Attempt int    `json:"attempt,omitempty"`
	State   string `json:"state"`
	Error   string `json:"error,omitempty"`
}

// fleetExec executes the fleet through shardexec.Run and wires every
// observer into the SSE fan-out; the execution shape decides which of
// them fire (see events). On a mid-fleet failure the partial aggregate
// is stored with the error.
func (s *Server) fleetExec(spec fleet.Spec) runstore.Exec {
	return func(ctx context.Context, h runstore.Handle) (any, error) {
		var attempts, retries int
		opts := shardexec.Options{
			Procs:         s.opts.Procs,
			ShardSize:     s.opts.shardSize,
			Workers:       s.opts.Workers,
			SnapshotEvery: s.opts.SnapshotEvery,
			Progress: func(done, total int) {
				h.SetProgress(done, total)
				h.Publish(runstore.Event{Type: "device", Data: deviceData{Done: done, Total: total}})
			},
			RunProgress: func(p sim.Progress) {
				h.Publish(runstore.Event{Type: "run", Data: runData{Index: p.Index, Done: p.Done, Total: p.Total,
					Name: p.Name, WallMS: float64(p.Wall.Microseconds()) / 1000}})
			},
			Snapshot: func(done, total int, sum fleet.Summary) {
				h.Publish(runstore.Event{Type: "snapshot", Data: snapshotData{Done: done, Total: total, Summary: sum}})
			},
			OnShard: func(ev shardexec.ShardEvent) {
				// OnShard calls are serialized by the supervisor.
				if ev.State == "start" {
					attempts++
					if ev.Attempt > 1 {
						retries++
					}
					h.SetShardStats(attempts, retries)
				}
				h.Publish(runstore.Event{Type: "shard", Data: shardData{
					Index: ev.Index, Lo: ev.Lo, Hi: ev.Hi,
					Attempt: ev.Attempt, State: ev.State, Error: ev.Err,
				}})
			},
		}
		r, err := shardexec.Run(ctx, spec, opts)
		if r == nil {
			return nil, err
		}
		h.SetShardStats(r.Attempts, r.Retries)
		if err != nil && r.Agg.Devices() == 0 {
			// Nothing folded: the error alone tells the story.
			return nil, err
		}
		return r.Agg.Summary(), err
	}
}

// list answers GET /runs (kind == "": everything) and GET /fleets.
func (s *Server) list(kind string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		all := s.store.List()
		runs := make([]runstore.Run, 0, len(all))
		for _, run := range all {
			if kind == "" || run.Kind == kind {
				run.Result = nil // listings stay small; fetch by ID for results
				runs = append(runs, run)
			}
		}
		writeJSON(w, http.StatusOK, map[string]any{"runs": runs})
	}
}

// lookup fetches the entry and enforces the kind ↔ path-prefix match: a
// fleet ID under /runs/ is a 404, not a leak across surfaces.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request, kind string) (runstore.Run, bool) {
	run, err := s.store.Get(r.PathValue("id"))
	if err != nil || run.Kind != kind {
		writeError(w, http.StatusNotFound, runstore.ErrNotFound)
		return runstore.Run{}, false
	}
	return run, true
}

func (s *Server) get(kind string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		run, ok := s.lookup(w, r, kind)
		if !ok {
			return
		}
		writeJSON(w, http.StatusOK, run)
	}
}

func (s *Server) cancel(kind string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if _, ok := s.lookup(w, r, kind); !ok {
			return
		}
		run, err := s.store.Cancel(r.PathValue("id"))
		switch {
		case errors.Is(err, runstore.ErrFinished):
			writeError(w, http.StatusConflict, err)
		case err != nil:
			writeError(w, http.StatusNotFound, err)
		default:
			writeJSON(w, http.StatusAccepted, run)
		}
	}
}

func (s *Server) healthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "active": s.store.Active()})
}

// readyz is the readiness probe: distinct from /healthz (liveness)
// because a draining daemon is still alive — in-flight runs keep
// executing and their SSE streams keep flowing — but must stop
// receiving new traffic. 503 flips as soon as the store closes, the
// whole shutdown-grace window before the listener goes away.
func (s *Server) readyz(w http.ResponseWriter, r *http.Request) {
	if s.store.Draining() {
		writeJSON(w, http.StatusServiceUnavailable,
			map[string]any{"ready": false, "draining": true, "active": s.store.Active()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ready": true, "active": s.store.Active()})
}
