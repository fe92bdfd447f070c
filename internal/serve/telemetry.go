package serve

// Wall-clock run telemetry: the serving layer's second time domain.
// Every accepted request is measured through five lifecycle stages —
//
//	received   reading and parsing the uploaded batch
//	parsed     validation, tracker setup and queue admission
//	queued     waiting behind the running request
//	running    the batch.SeedEngineCtx run itself
//	reporting  serializing/streaming the response back
//
// — each recorded as one wall-clock span (internal/trace's WallTrace,
// run ID as the span name) exported at /walltrace and via
// casa-serve's -walltrace flag, and folded into lifetime histograms
// (serve/queue/wait_us, serve/run/duration_us) served at /metrics and
// summarized at /v1/stats. None of this touches the modelled cycle
// domain: the engine still runs on a per-request registry whose numbers
// stay byte-identical to an offline casa-smem run, and wall instruments
// only ever observe host timestamps taken outside the seeding hot path
// (per request and per queue transition, never per read).

import (
	"net/http"
	"strings"
	"time"

	"casa/internal/metrics"
	"casa/internal/obshttp"
	"casa/internal/trace"
)

// wallProc is the process label of every serving-lifecycle wall span.
const wallProc = "casa-serve"

// StatsSchema identifies the GET /v1/stats JSON layout.
const StatsSchema = "casa-serve-stats/v1"

// recordLifecycle emits the received→parsed→queued→running span chain of
// one finished run and observes the queue-wait and run-duration
// histograms. Called by the dispatcher after the run completes (the
// reporting span is the handler's, emitted once the response is
// written). Jobs cancelled while queued still get their chain — their
// running span has zero duration — so every accepted run is visible in
// the trace.
func (s *Server) recordLifecycle(j *job) {
	id := j.tracker.RunID()
	s.wall.Record(wallProc, "received", id, j.received, j.parsed.Sub(j.received))
	s.wall.Record(wallProc, "parsed", id, j.parsed, j.queued.Sub(j.parsed))
	s.wall.Record(wallProc, "queued", id, j.queued, j.started.Sub(j.queued))
	s.wall.Record(wallProc, "running", id, j.started, j.finished.Sub(j.started))
	s.histQueueWait.Observe(maxZero(j.started.Sub(j.queued).Microseconds()))
	s.histRunDur.Observe(maxZero(j.finished.Sub(j.started).Microseconds()))
}

// recordReporting emits the terminal reporting span: run end to response
// written. Handler-side, so a client that vanished mid-response simply
// has no reporting span.
func (s *Server) recordReporting(j *job, wrote time.Time) {
	s.wall.Record(wallProc, "reporting", j.tracker.RunID(), j.finished, wrote.Sub(j.finished))
}

// foldRunWall folds one finished run's batch-layer wall recorder into the
// server: the per-worker busy times feed the lifetime utilization
// instruments (lifetime/batch/worker_busy_us, the per-run imbalance
// histogram behind run_imbalance_permille in /v1/stats), and the spans
// themselves are nested into the lifecycle trace — re-labelled onto the
// casa-serve process with the worker/host label as the track and the run
// ID prefixed to the span name, so /walltrace shows each run's
// shard gantt directly under its received→…→reporting chain.
func (s *Server) foldRunWall(runID string, runWall *trace.WallTrace) {
	spans := runWall.Spans()
	if len(spans) == 0 {
		return
	}
	workers, _ := trace.WallWorkers(spans)
	var busy int64
	for _, st := range workers {
		busy += st.BusyUS
	}
	s.reg.Counter("lifetime/batch/worker_busy_us").Add(busy)
	if imb := trace.WallImbalance(workers); imb > 0 {
		s.histImbalance.Observe(int64(imb * 1000))
	}
	if dropped := runWall.Dropped(); dropped > 0 {
		s.reg.Counter("lifetime/batch/wall_spans_dropped").Add(dropped)
	}
	for _, sp := range spans {
		s.wall.AddSpan(trace.WallSpan{
			Proc:  wallProc,
			Track: sp.Proc,
			Name:  runID + " " + sp.Name,
			Start: sp.Start,
			Dur:   sp.Dur,
		})
	}
}

func maxZero(v int64) int64 {
	if v < 0 {
		return 0
	}
	return v
}

// retryAfterSeconds derives the 429 Retry-After hint from observed run
// durations: waiting requests (the queue plus the running one) times the
// p50 run duration, rounded up to whole seconds and clamped to [1, 300].
// With no completed run yet there is nothing to extrapolate from and the
// hint falls back to 1s.
func retryAfterSeconds(queued int, p50us int64) int {
	if p50us <= 0 {
		return 1
	}
	us := int64(queued+1) * p50us
	secs := int((us + 999_999) / 1_000_000)
	if secs < 1 {
		secs = 1
	}
	if secs > 300 {
		secs = 300
	}
	return secs
}

// Quantiles is one histogram's /v1/stats summary: observation count and
// upper-bound p50/p99 estimates in microseconds.
type Quantiles struct {
	Count int64 `json:"count"`
	P50us int64 `json:"p50_us"`
	P99us int64 `json:"p99_us"`
}

// Stats is the GET /v1/stats document: a point-in-time JSON summary of
// the server's lifetime — uptime, terminal run counts, queue state and
// latency quantiles — for operators and dashboards that want one
// structured snapshot instead of parsing the Prometheus exposition.
// Adding fields is not a schema change.
type Stats struct {
	Schema        string  `json:"schema"`
	Engine        string  `json:"engine"`
	UptimeSeconds float64 `json:"uptime_seconds"`

	QueueDepth    int `json:"queue_depth"`
	QueueCapacity int `json:"queue_capacity"`

	RunsAccepted  int64 `json:"runs_accepted"`
	RunsCompleted int64 `json:"runs_completed"`
	RunsCancelled int64 `json:"runs_cancelled"`
	RunsRejected  int64 `json:"runs_rejected"`
	ReadsSeeded   int64 `json:"reads_seeded"`

	BytesIn    int64 `json:"bytes_in"`
	BytesOut   int64 `json:"bytes_out"`
	SSEStreams int64 `json:"sse_streams"`

	QueueWait   Quantiles            `json:"queue_wait"`
	RunDuration Quantiles            `json:"run_duration"`
	HTTP        map[string]Quantiles `json:"http"` // endpoint label -> request durations

	// Pool utilization across served runs: total worker busy time and the
	// per-run load-imbalance ratio (max/mean worker busy, in permille so
	// the integer histogram keeps 3 digits: 1000 = perfectly balanced).
	WorkerBusyUS int64     `json:"worker_busy_us"`
	RunImbalance Quantiles `json:"run_imbalance_permille"`

	TraceSpans   int   `json:"trace_spans"`
	TraceDropped int64 `json:"trace_dropped"`
}

// quantiles summarizes a live histogram.
func quantiles(h *metrics.Histogram) Quantiles {
	return Quantiles{Count: h.Count(), P50us: h.Quantile(0.5), P99us: h.Quantile(0.99)}
}

// stats assembles the /v1/stats document from the serving registry.
func (s *Server) stats() Stats {
	st := Stats{
		Schema:        StatsSchema,
		Engine:        s.proto.Name(),
		UptimeSeconds: time.Since(s.started).Seconds(),
		QueueDepth:    len(s.queue),
		QueueCapacity: cap(s.queue),
		RunsAccepted:  s.reg.Counter("serve/runs/accepted").Value(),
		RunsCompleted: s.reg.Counter("serve/runs/completed").Value(),
		RunsCancelled: s.reg.Counter("serve/runs/cancelled").Value(),
		RunsRejected:  s.reg.Counter("serve/runs/rejected").Value(),
		ReadsSeeded:   s.reg.Counter("serve/reads/seeded").Value(),
		BytesIn:       s.reg.Counter("http/server/bytes_in").Value(),
		BytesOut:      s.reg.Counter("http/server/bytes_out").Value(),
		SSEStreams:    s.reg.Counter("serve/sse/streams").Value(),
		QueueWait:     quantiles(s.histQueueWait),
		RunDuration:   quantiles(s.histRunDur),
		HTTP:          map[string]Quantiles{},
		WorkerBusyUS:  s.reg.Counter("lifetime/batch/worker_busy_us").Value(),
		RunImbalance:  quantiles(s.histImbalance),
		TraceSpans:    s.wall.Len(),
		TraceDropped:  s.wall.Dropped(),
	}
	for _, snap := range s.reg.Snapshots() {
		if snap.Kind != "histogram" || !strings.HasPrefix(snap.Name, "http/") || !strings.HasSuffix(snap.Name, "/duration_us") {
			continue
		}
		ep := strings.TrimSuffix(strings.TrimPrefix(snap.Name, "http/"), "/duration_us")
		st.HTTP[ep] = Quantiles{
			Count: snap.Count,
			P50us: metrics.QuantileFromBuckets(snap.Bounds, snap.Counts, snap.Count, 0.5),
			P99us: metrics.QuantileFromBuckets(snap.Bounds, snap.Counts, snap.Count, 0.99),
		}
	}
	return st
}

// handleStats serves the lifetime summary at GET /v1/stats.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	obshttp.WriteJSON(w, s.stats())
}
