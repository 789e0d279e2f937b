package httpapi

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/fleet"
	"repro/internal/runstore"
)

// events streams a run's progress as Server-Sent Events until the run
// reaches a terminal state (or the client goes away). The stream always
// opens with the current state and always closes with the terminal
// frames, read from the store itself rather than the event channel — a
// subscriber can therefore attach at any point, including after the run
// finished, and still observe the authoritative outcome:
//
//	event: state     {"id","state","error"?}        transitions
//	event: run       {"index","done","total",...}   one sim run finished (in process)
//	event: shard     {"index","lo","hi","state",...} a worker shard's transition (Procs > 0)
//	event: device    {"done","total"}               one device folded
//	event: snapshot  {"done","total","summary"}     live aggregate
//	event: done      {"id","state","error"?}        terminal; stream ends
//
// Intermediate events are lossy under backpressure (a slow client skips
// ahead; ordering is preserved, so "done" counters stay strictly
// monotonic), but the final snapshot and "done" frame are guaranteed
// and the final snapshot is exactly the stored result.
//
// While the stream is idle (a queued run waiting for a slot, a long
// shard between folds) a keep-alive comment frame (": heartbeat") goes
// out every DefaultHeartbeat so idle-timeout proxies don't sever the
// stream; comments are invisible to SSE clients, so the event protocol
// above is unchanged.
func (s *Server) events(kind string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if _, ok := s.lookup(w, r, kind); !ok {
			return
		}
		id := r.PathValue("id")
		events, done, unsubscribe, err := s.store.Subscribe(id)
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		defer unsubscribe()
		flusher, ok := w.(http.Flusher)
		if !ok {
			writeError(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported"))
			return
		}
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
		w.Header().Set("X-Accel-Buffering", "no") // proxies must not buffer the stream
		w.WriteHeader(http.StatusOK)

		// Current state first; Subscribe happened before this Get, so a
		// transition between them shows up twice at worst, never not at
		// all.
		run, err := s.store.Get(id)
		if err != nil {
			return
		}
		writeSSE(w, "state", stateFrame(run))
		flusher.Flush()

		heartbeat := time.NewTimer(s.opts.heartbeat)
		defer heartbeat.Stop()
		for {
			select {
			case ev := <-events:
				writeSSE(w, ev.Type, ev.Data)
				flusher.Flush()
				resetTimer(heartbeat, s.opts.heartbeat)
			case <-heartbeat.C:
				// Comment frame: keeps the TCP connection warm through
				// proxies, invisible to EventSource consumers.
				fmt.Fprint(w, ": heartbeat\n\n")
				flusher.Flush()
				heartbeat.Reset(s.opts.heartbeat)
			case <-done:
				// Flush whatever the fold loop published before the end,
				// then the authoritative terminal frames.
				for {
					select {
					case ev := <-events:
						writeSSE(w, ev.Type, ev.Data)
						continue
					default:
					}
					break
				}
				final, err := s.store.Get(id)
				if err != nil {
					return
				}
				if sum, ok := final.Result.(fleet.Summary); ok {
					writeSSE(w, "snapshot", snapshotData{Done: final.Done, Total: final.Total, Summary: sum})
				}
				writeSSE(w, "done", stateFrame(final))
				flusher.Flush()
				return
			case <-r.Context().Done():
				return
			}
		}
	}
}

// resetTimer rearms a timer that may or may not have fired: the fired
// case needs its channel drained first, or the stale tick would fire a
// spurious heartbeat right after a real event.
func resetTimer(t *time.Timer, d time.Duration) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	t.Reset(d)
}

// stateFrame is the payload of "state" and "done" frames built from a
// store snapshot.
func stateFrame(run runstore.Run) map[string]any {
	m := map[string]any{"id": run.ID, "state": run.State}
	if run.Error != "" {
		m["error"] = run.Error
	}
	return m
}

// writeSSE emits one event in the text/event-stream framing. Payloads
// are single-line JSON (encoding/json never emits raw newlines), so one
// data: line suffices.
func writeSSE(w http.ResponseWriter, event string, data any) {
	blob, err := json.Marshal(data)
	if err != nil {
		// A payload we built always marshals; guard anyway so a future
		// unmarshalable type degrades to a visible error event.
		fmt.Fprintf(w, "event: error\ndata: {\"error\":%q}\n\n", err.Error())
		return
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, blob)
}
