package obshttp

import (
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"time"

	"casa/internal/metrics"
)

// Wall-clock HTTP instrumentation for the serving front door: a
// middleware that wraps a whole mux and records, per endpoint, request
// counts, status classes and duration histograms, plus process-wide
// in-flight and byte counters — and emits one structured access-log
// record per request carrying the run ID (the X-Casa-Run response
// header), so a run can be joined across the log line, the /v1/runs
// snapshot, the wall-clock trace span and the metrics delta.
//
// These are *wall-clock* numbers about the host serving path; they never
// touch the modelled cycle domain. The CLIs' -http sidecar deliberately
// does NOT use this middleware: its registry is the run's engine
// registry, whose JSON lands in reports that must stay byte-identical to
// offline runs — http/* names leaking into it would break that contract.

// durationBuckets is the shared power-of-two microsecond layout of every
// wall-clock duration histogram (1 µs .. ~9 min).
const durationBuckets = 30

// maxEndpointLabels bounds the distinct per-endpoint metric families one
// instrumented server can create: after the cap, unseen labels collapse
// into "other" so request paths (an attacker-controlled input) cannot
// grow the registry without bound.
const maxEndpointLabels = 64

// EndpointLabel maps a request path to the metric-name segment its
// per-endpoint metrics are filed under: "/v1/seed" -> "v1_seed", "/" ->
// "index". Run-scoped paths collapse ("/v1/runs/<id>" -> "v1_runs_id",
// "/v1/runs/<id>/events" -> "v1_runs_id_events"), as do the pprof
// profiles, so label cardinality stays bounded by the
// serving surface, not by traffic.
func EndpointLabel(path string) string {
	switch {
	case path == "" || path == "/":
		return "index"
	case strings.HasPrefix(path, "/v1/runs/") && strings.HasSuffix(path, "/events"):
		return "v1_runs_id_events"
	case strings.HasPrefix(path, "/v1/runs/"):
		return "v1_runs_id"
	case strings.HasPrefix(path, "/debug/pprof"):
		return "debug_pprof"
	}
	var b strings.Builder
	b.Grow(len(path))
	lastUnderscore := true // leading separators collapse away
	for i := 0; i < len(path) && b.Len() < 48; i++ {
		c := path[i]
		switch {
		case 'a' <= c && c <= 'z' || '0' <= c && c <= '9':
			b.WriteByte(c)
			lastUnderscore = false
		case 'A' <= c && c <= 'Z':
			b.WriteByte(c - 'A' + 'a')
			lastUnderscore = false
		default:
			if !lastUnderscore {
				b.WriteByte('_')
				lastUnderscore = true
			}
		}
	}
	label := strings.TrimSuffix(b.String(), "_")
	if label == "" {
		return "other"
	}
	return label
}

// Instrument wraps next with per-endpoint wall-clock metrics in reg and
// one access-log record per request through log. Either may be nil to
// disable that half. The returned handler preserves streaming: the
// response writer it passes down implements http.Flusher (delegating to
// the underlying writer) and Unwrap, so SSE upgrades and
// ResponseController deadline lifts work unchanged.
func Instrument(next http.Handler, reg *metrics.Registry, log *slog.Logger) http.Handler {
	if reg == nil && log == nil {
		return next
	}
	return &instrumented{
		next:   next,
		reg:    reg,
		log:    log,
		bounds: metrics.PowerOfTwoBounds(durationBuckets),
		labels: make(map[string]bool),
	}
}

type instrumented struct {
	next   http.Handler
	reg    *metrics.Registry
	log    *slog.Logger
	bounds []int64

	mu     sync.Mutex
	labels map[string]bool
}

// label resolves the request path's endpoint label, collapsing to
// "other" once the distinct-label cap is reached.
func (in *instrumented) label(path string) string {
	l := EndpointLabel(path)
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.labels[l] {
		return l
	}
	if len(in.labels) >= maxEndpointLabels {
		return "other"
	}
	in.labels[l] = true
	return l
}

func (in *instrumented) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	ep := in.label(r.URL.Path)

	var inFlight *metrics.Gauge
	if in.reg != nil {
		inFlight = in.reg.Gauge("http/server/in_flight")
		inFlight.Add(1)
	}

	cr := &countingReader{rc: r.Body}
	r.Body = cr
	sw := &statusWriter{ResponseWriter: w}
	defer func() {
		if inFlight != nil {
			inFlight.Add(-1)
		}
		status := sw.status
		if status == 0 {
			// The handler wrote neither header nor body (e.g. a streaming
			// client vanished before the first byte): net/http sends 200.
			status = http.StatusOK
		}
		wallUS := time.Since(start).Microseconds()
		if in.reg != nil {
			in.reg.Counter("http/" + ep + "/requests").Inc()
			in.reg.Counter("http/" + ep + "/status_" + statusClass(status)).Inc()
			in.reg.Histogram("http/"+ep+"/duration_us", in.bounds).Observe(wallUS)
			in.reg.Counter("http/server/bytes_in").Add(cr.n)
			in.reg.Counter("http/server/bytes_out").Add(sw.bytes)
		}
		if in.log != nil {
			attrs := []slog.Attr{
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Int("status", status),
				slog.Int64("bytes_in", cr.n),
				slog.Int64("bytes_out", sw.bytes),
				slog.Int64("wall_us", wallUS),
			}
			if runID := sw.Header().Get("X-Casa-Run"); runID != "" {
				attrs = append(attrs, slog.String("run_id", runID))
			}
			in.log.LogAttrs(r.Context(), slog.LevelInfo, "http request", attrs...)
		}
	}()
	in.next.ServeHTTP(sw, r)
}

// statusClass buckets a status code into its class segment ("2xx").
func statusClass(status int) string {
	switch {
	case status < 200:
		return "1xx"
	case status < 300:
		return "2xx"
	case status < 400:
		return "3xx"
	case status < 500:
		return "4xx"
	default:
		return "5xx"
	}
}

// statusWriter captures the response status and body byte count while
// delegating everything — including streaming — to the wrapped writer.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// Flush implements http.Flusher so newEventStream's upgrade check passes
// through the wrapper.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.NewResponseController reach the underlying writer
// (write-deadline lifts on SSE streams).
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// countingReader counts the request body bytes the handler actually read.
type countingReader struct {
	rc io.ReadCloser
	n  int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.rc.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countingReader) Close() error { return c.rc.Close() }
