package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/fleet"
	"repro/internal/runstore"
)

// events streams a run's progress as Server-Sent Events until the run
// reaches a terminal state (or the client goes away). The stream always
// opens with the current state and always closes with the terminal
// frames, read from the store itself rather than the subscription — a
// subscriber can therefore attach at any point, including after the run
// finished, and still observe the authoritative outcome:
//
//	event: state     {"id","state","error"?}        transitions
//	event: run       {"index","done","total",...}   one sim run finished (in process)
//	event: shard     {"index","lo","hi","state",...} a worker shard's transition (Procs > 0)
//	event: device    {"done","total"}               one device folded
//	event: snapshot  {"done","total","summary"}     live aggregate
//	event: done      {"dropped"?,"error"?,"id","state"} terminal; stream ends
//
// The handler writes its subscription's whole backlog on each wake.
// Intermediate events are lossy under backpressure: once 1,024 events
// wait behind the batch being written (a client up to 2,048 events
// behind), the newest ones are lost (ordering is preserved, so "done"
// counters stay strictly monotonic), and the done frame counts them in
// "dropped" when there were any. The final snapshot and "done"
// frame are guaranteed, and the final snapshot is exactly the stored
// result.
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
		sub, err := s.store.Subscribe(id)
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		defer sub.Close()
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
		sw := newSSEWriter(w)
		sw.frame("state", stateOf(run))
		flusher.Flush()

		heartbeat := time.NewTimer(s.opts.heartbeat)
		defer heartbeat.Stop()
		var batch []runstore.Event
		for {
			select {
			case <-sub.Wake():
				batch = sub.Take(batch)
				for _, ev := range batch {
					sw.frame(ev.Type, ev.Data)
				}
				flusher.Flush()
				resetTimer(heartbeat, s.opts.heartbeat)
			case <-heartbeat.C:
				// Comment frame: keeps the TCP connection warm through
				// proxies, invisible to EventSource consumers.
				io.WriteString(w, ": heartbeat\n\n")
				flusher.Flush()
				heartbeat.Reset(s.opts.heartbeat)
			case <-sub.Done():
				// Write whatever the fold loop published before the end,
				// then the authoritative terminal frames.
				for _, ev := range sub.Take(batch) {
					sw.frame(ev.Type, ev.Data)
				}
				final, err := s.store.Get(id)
				if err != nil {
					return
				}
				if sum, ok := final.Result.(fleet.Summary); ok {
					sw.frame("snapshot", snapshotData{Done: final.Done, Total: final.Total, Summary: sum})
				}
				done := stateOf(final)
				done.Dropped = sub.Dropped()
				sw.frame("done", done)
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

// stateFrame is the payload of the "state" frame a stream opens with
// and of its "done" frame. Its fields are in sorted key order, so it
// marshals as a map of the same keys would.
type stateFrame struct {
	// Dropped counts the events the stream lost to a full queue; only
	// the done frame sets it.
	Dropped int            `json:"dropped,omitempty"`
	Error   string         `json:"error,omitempty"`
	ID      string         `json:"id"`
	State   runstore.State `json:"state"`
}

func stateOf(run runstore.Run) stateFrame {
	return stateFrame{Error: run.Error, ID: run.ID, State: run.State}
}

// sseWriter frames events onto one stream. Each frame is built in buf,
// which lives as long as the stream, and goes out in one Write.
type sseWriter struct {
	w   io.Writer
	buf bytes.Buffer
	enc *json.Encoder // encodes into buf
}

func newSSEWriter(w io.Writer) *sseWriter {
	sw := &sseWriter{w: w}
	sw.enc = json.NewEncoder(&sw.buf)
	return sw
}

// frame writes one event in the text/event-stream framing. Payloads
// are single-line JSON (encoding/json never emits raw newlines), so
// one data: line suffices, ended by the newline Encode appends.
func (sw *sseWriter) frame(event string, data any) {
	sw.buf.Reset()
	sw.buf.WriteString("event: ")
	sw.buf.WriteString(event)
	sw.buf.WriteString("\ndata: ")
	if err := sw.enc.Encode(data); err != nil {
		// A payload we built always marshals; guard anyway so a future
		// unmarshalable type degrades to a visible error event.
		sw.buf.Reset()
		fmt.Fprintf(&sw.buf, "event: error\ndata: {\"error\":%q}\n", err.Error())
	}
	sw.buf.WriteByte('\n')
	sw.w.Write(sw.buf.Bytes())
}
