package obshttp

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"

	"casa/internal/metrics"
	"casa/internal/progress"
	"casa/internal/trace"
)

// This file is the one handler set of the package comment: the CLI
// sidecar (Server) and casa-serve (internal/serve) mount it through the
// same Mux calls, so a path answers with one method set and one error
// contract on both.

// heartbeat is the longest a run's event stream goes without a progress
// event while the run is live.
const heartbeat = time.Second

// Mux is an http.ServeMux that remembers what is mounted on it, so its
// index page lists exactly the endpoints it serves. Mount everything
// before serving; the mux is read-only afterwards.
type Mux struct {
	mux     http.ServeMux
	title   string
	entries []entry
}

// entry is one index line.
type entry struct {
	methods, path string
	live          func() bool // nil: always served
}

// NewMux returns a mux whose index page, at exactly "/", opens with
// title. Unmounted paths answer 404.
func NewMux(title string) *Mux {
	m := &Mux{title: title}
	m.mux.HandleFunc("/{$}", func(w http.ResponseWriter, r *http.Request) {
		if requireMethod(w, r, http.MethodGet) {
			m.index(w)
		}
	})
	return m
}

func (m *Mux) ServeHTTP(w http.ResponseWriter, r *http.Request) { m.mux.ServeHTTP(w, r) }

// Handle mounts h at the ServeMux pattern path. A request whose method
// is not in methods answers 405 with the Allow header (no methods: any
// method passes). The index lists the path while live reports true (nil:
// always); an endpoint that would answer 503 is left out, so operators
// discovering a process by its index are not misled.
func (m *Mux) Handle(path string, h http.HandlerFunc, live func() bool, methods ...string) {
	m.entries = append(m.entries, entry{methods: strings.Join(methods, ","), path: path, live: live})
	if len(methods) > 0 {
		inner := h
		h = func(w http.ResponseWriter, r *http.Request) {
			if requireMethod(w, r, methods...) {
				inner(w, r)
			}
		}
	}
	m.mux.HandleFunc(path, h)
}

// index writes the title and one line per endpoint served right now.
func (m *Mux) index(w io.Writer) {
	fmt.Fprintf(w, "%s:\n", m.title)
	for _, e := range m.entries {
		if e.live == nil || e.live() {
			fmt.Fprintf(w, "  %-4s %s\n", e.methods, e.path)
		}
	}
}

// Metrics mounts reg's Prometheus text exposition at /metrics. A nil
// registry answers 503: the process exists but was not configured with
// metrics, which a scrape config must tell apart from a 404 typo.
func (m *Mux) Metrics(reg *metrics.Registry) {
	m.Handle("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if reg == nil {
			http.Error(w, "metrics not configured for this process", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := reg.WriteText(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	}, func() bool { return reg != nil }, http.MethodGet)
}

// Runs mounts the run endpoints over runs: the run list, each run's
// snapshot (live runs keep updating; finished ones answer their terminal
// snapshot until the registry evicts them) and each run's event stream,
// which ends with a "done" event carrying the terminal snapshot. A
// stream also ends when its client leaves or stop closes (nil: never).
func (m *Mux) Runs(runs *progress.Registry, stop <-chan struct{}) {
	m.Handle("/v1/runs", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, struct {
			Runs []string `json:"runs"`
		}{Runs: runs.IDs()})
	}, nil, http.MethodGet)
	m.Handle("/v1/runs/{id}", func(w http.ResponseWriter, r *http.Request) {
		if t := lookupRun(w, r, runs); t != nil {
			WriteJSON(w, t.Snapshot())
		}
	}, nil, http.MethodGet)
	m.Handle("/v1/runs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		if t := lookupRun(w, r, runs); t != nil {
			if es := StreamRun(w, r, t, stop); es != nil {
				_ = es.Emit("done", t.Snapshot())
			}
		}
	}, nil, http.MethodGet)
}

// lookupRun returns the tracker of the request's {id}, or answers 404
// and returns nil.
func lookupRun(w http.ResponseWriter, r *http.Request, runs *progress.Registry) *progress.Tracker {
	id := r.PathValue("id")
	t, ok := runs.Get(id)
	if !ok {
		http.Error(w, fmt.Sprintf("unknown run %q", id), http.StatusNotFound)
		return nil
	}
	return t
}

// TraceDoc writes one trace document.
type TraceDoc func(io.Writer) error

// Trace mounts a trace document at path. doc returns the writer of the
// current document, or nil while there is none: then the path answers
// 503 with missing and the index leaves it out.
func (m *Mux) Trace(path string, doc func() TraceDoc, missing string) {
	m.Handle(path, func(w http.ResponseWriter, r *http.Request) {
		write := doc()
		if write == nil {
			http.Error(w, missing, http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := write(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	}, func() bool { return doc() != nil }, http.MethodGet)
}

// WallDoc returns wall's document source for Trace: its spans as they
// are when the request arrives (WallTrace is safe to read while it
// records), or none when wall is nil.
func WallDoc(wall *trace.WallTrace) func() TraceDoc {
	return func() TraceDoc {
		if wall == nil {
			return nil
		}
		return func(w io.Writer) error { return trace.WriteChromeWall(w, wall.Spans(), wall.Dropped()) }
	}
}

// Pprof mounts the standard runtime profiles under /debug/pprof/:
// explicitly, with no default-mux blank import, so profiles appear only
// on muxes that opt in.
func (m *Mux) Pprof() {
	m.Handle("/debug/pprof/", pprof.Index, nil)
	m.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	m.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	m.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	m.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// StreamRun answers r with a Server-Sent Events stream of t's
// casa-progress/v1 snapshots: a "progress" event at once, then one at
// each shard completion (Tracker.Updates, coalesced) and each heartbeat.
// When the run finishes it sends nothing more and returns the stream, so
// the caller sends the terminal event ("done" for a run's event stream,
// "report" for POST /v1/seed). It returns nil when the stream ended
// first: the client left, stop closed, or a write failed. Streams of one
// run share its Updates signal, so each also relies on the heartbeat.
func StreamRun(w http.ResponseWriter, r *http.Request, t *progress.Tracker, stop <-chan struct{}) *EventStream {
	es, err := newEventStream(w)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return nil
	}
	tick := time.NewTicker(heartbeat)
	defer tick.Stop()
	for {
		if es.Emit("progress", t.Snapshot()) != nil {
			return nil
		}
		// A finished run ends the stream before any pending update: a late
		// subscriber gets one snapshot and the terminal event.
		select {
		case <-t.Done():
			return es
		default:
		}
		select {
		case <-r.Context().Done():
			return nil
		case <-stop:
			return nil
		case <-t.Done():
			return es
		case <-t.Updates():
		case <-tick.C:
		}
	}
}

// requireMethod enforces an endpoint's method set: it reports whether
// r.Method is one of allowed and otherwise writes 405 with the Allow
// header listing the permitted set. Allowing GET implies HEAD (net/http
// suppresses the body on HEAD automatically), matching RFC 9110's
// expectation that the two travel together.
func requireMethod(w http.ResponseWriter, r *http.Request, allowed ...string) bool {
	for _, m := range allowed {
		if r.Method == m || (m == http.MethodGet && r.Method == http.MethodHead) {
			return true
		}
	}
	allow := allowed
	if contains(allowed, http.MethodGet) && !contains(allowed, http.MethodHead) {
		allow = append(allow[:len(allow):len(allow)], http.MethodHead)
	}
	w.Header().Set("Allow", strings.Join(allow, ", "))
	http.Error(w, fmt.Sprintf("method %s not allowed (allow: %s)",
		r.Method, strings.Join(allow, ", ")), http.StatusMethodNotAllowed)
	return false
}

func contains(ss []string, s string) bool {
	for _, v := range ss {
		if v == s {
			return true
		}
	}
	return false
}

// WriteJSON writes v as an indented JSON response, the encoding every
// JSON endpoint (progress snapshots, seed reports) shares.
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// EventStream is a started Server-Sent Events response. newEventStream
// writes the stream headers and lifts the server's per-request write
// deadline (an SSE stream legitimately outlives any fixed write budget;
// slow-client protection falls to the event cadence: a blocked Emit
// surfaces as an error on the next event).
type EventStream struct {
	w       http.ResponseWriter
	flusher http.Flusher
}

// newEventStream upgrades w to an SSE response. It fails only when the
// ResponseWriter cannot stream (no http.Flusher), which the caller must
// report as a 500 before any body is written.
func newEventStream(w http.ResponseWriter) (*EventStream, error) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		return nil, fmt.Errorf("obshttp: response writer cannot stream (no http.Flusher)")
	}
	_ = http.NewResponseController(w).SetWriteDeadline(time.Time{})
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	return &EventStream{w: w, flusher: flusher}, nil
}

// Emit writes one named event with v marshalled as its JSON data line
// and flushes it to the client. The first error (marshal or a gone
// client) ends the stream: callers return on a non-nil error.
func (es *EventStream) Emit(event string, v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(es.w, "event: %s\ndata: %s\n\n", event, raw); err != nil {
		return err
	}
	es.flusher.Flush()
	return nil
}
