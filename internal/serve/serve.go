// Package serve is the seeding front door: a long-running multi-tenant
// HTTP server that loads a reference once, builds one engine via the
// internal/engine registry, and seeds client-submitted read batches over
// the shared immutable index — the host-side counterpart of CASA's
// batch-oriented accelerator pipeline, and the serving layer the
// ROADMAP's "seeding-as-a-service" item calls for.
//
// Requests flow through a bounded FIFO queue with a concurrency cap of
// one batch.SeedEngineCtx run at a time: within a run the pool fans out
// over engine clones exactly as the CLIs do, so the modelled numbers of
// a served batch are byte-identical to an offline casa-smem run of the
// same inputs. A full queue answers 429 with Retry-After; a client
// disconnect cancels its run via RunCtx's drain semantics (claimed
// shards finish, the completed prefix stays consistent) and frees the
// slot; Shutdown stops accepting, finishes the in-flight and queued
// runs, and then stops the dispatcher — the SIGTERM drain casa-serve
// relies on.
//
// Endpoints (the run, trace, metrics and profile handlers are
// internal/obshttp's, mounted here exactly as on the CLIs' -http sidecar):
//
//	POST /v1/seed               seed a FASTA/FASTQ batch (body or
//	                            multipart); JSON casa-smem/v1 report, or —
//	                            with Accept: text/event-stream — an SSE
//	                            stream of "progress" events then one "report"
//	GET  /v1/runs               run IDs known to this process
//	GET  /v1/runs/{id}          one run's casa-progress/v1 snapshot
//	GET  /v1/runs/{id}/events   SSE: the run's "progress" events, then "done"
//	GET  /v1/stats              lifetime summary (casa-serve-stats/v1 JSON)
//	GET  /healthz               200 serving / 503 draining
//	GET  /metrics               lifetime serving + per-endpoint http metrics
//	GET  /walltrace             wall-clock run lifecycle trace (casa-walltrace/v1)
//	     /debug/pprof/          the standard profiles
//
// Observability (see telemetry.go and docs/OBSERVABILITY.md): every
// request flows through obshttp.Instrument (per-endpoint counts, status
// classes, duration histograms, access logs keyed by run ID), every
// accepted run is traced through its wall-clock lifecycle
// (received→parsed→queued→running→reporting), and each finished run's
// engine registry is folded into the server registry under lifetime/.
package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"casa/internal/batch"
	"casa/internal/buildinfo"
	"casa/internal/dna"
	"casa/internal/engine"
	"casa/internal/metrics"
	"casa/internal/obshttp"
	"casa/internal/progress"
	"casa/internal/trace"
)

// Config tunes the serving layer. The zero value serves the casa engine
// with library defaults.
type Config struct {
	// Engine is the registry name of the seeding engine ("" = casa).
	Engine string

	// EngineOptions are the construction knobs passed to the registry.
	// A zero MinSMEM is resolved to the engines' shared default (19) so
	// the reported min_smem matches what the engines actually did.
	EngineOptions engine.Options

	// Workers is the per-run pool size (0 = one per CPU), the same knob
	// as the CLIs' -workers.
	Workers int

	// QueueDepth bounds the requests waiting behind the running one
	// (0 = 8). A full queue answers 429 + Retry-After.
	QueueDepth int

	// MaxBodyBytes caps an uploaded read batch (0 = 64 MiB).
	MaxBodyBytes int64

	// KeepFinished bounds the finished runs retained for GET /v1/runs
	// (0 = progress.DefaultKeepFinished).
	KeepFinished int

	// Log receives request/lifecycle records and the access log
	// (nil = slog.Default).
	Log *slog.Logger
}

// withDefaults resolves the zero values.
func (c Config) withDefaults() Config {
	if c.Engine == "" {
		c.Engine = "casa"
	}
	if c.EngineOptions.MinSMEM == 0 {
		c.EngineOptions.MinSMEM = 19
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.Log == nil {
		c.Log = slog.Default()
	}
	return c
}

// job is one accepted seeding request travelling from its handler to the
// dispatcher and back.
type job struct {
	ctx     context.Context // the request context: cancelled on client disconnect
	reads   []dna.Sequence
	names   []string
	tracker *progress.Tracker
	done    chan *Report // buffered: the dispatcher never blocks on a gone handler

	// Wall-clock lifecycle milestones (telemetry.go). The handler stamps
	// the first three; the dispatcher stamps started/finished, and the
	// send on done orders them before the handler's reporting span.
	received time.Time // request entered the handler
	parsed   time.Time // batch read and parsed
	queued   time.Time // admitted into the queue
	started  time.Time // dequeued by the dispatcher
	finished time.Time // run (and report assembly) complete
}

// Server is a running seeding front door. Create with Start (registry
// name over a reference) or StartEngine (an already-built engine).
type Server struct {
	cfg   Config
	proto engine.Engine // cloned per request: counters never leak across tenants

	ln      net.Listener
	srv     *http.Server
	reg     *metrics.Registry  // lifetime serving counters, at /metrics
	runs    *progress.Registry // run ID -> tracker, at /v1/runs/{id}
	wall    *trace.WallTrace   // run lifecycle spans, at /walltrace
	started time.Time          // process uptime origin for /v1/stats

	// Hot serving instruments, resolved once (Registry lookups lock).
	histQueueWait *metrics.Histogram // serve/queue/wait_us
	histRunDur    *metrics.Histogram // serve/run/duration_us
	histImbalance *metrics.Histogram // lifetime/batch/imbalance_permille
	gQueueDepth   *metrics.Gauge     // serve/queue/depth

	queue        chan *job
	quitOnce     sync.Once
	quit         chan struct{} // closed at Shutdown, after the listener drains
	dispatchDone chan struct{}
	serveDone    chan struct{}
	draining     atomic.Bool

	mu  sync.Mutex
	err error
}

// Start builds cfg.Engine over ref via the registry and serves on addr
// (host:port; port 0 picks a free port).
func Start(addr string, ref dna.Sequence, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if f, ok := engine.Lookup(cfg.Engine); ok {
		cfg.Engine = f.Name
	}
	eng, err := engine.New(cfg.Engine, ref, cfg.EngineOptions)
	if err != nil {
		return nil, err
	}
	return StartEngine(addr, eng, cfg)
}

// StartEngine serves an already-built engine on addr. proto is never
// seeded directly: every request runs on a fresh Clone, so per-request
// reports carry only their own run's counters.
func StartEngine(addr string, proto engine.Engine, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:          cfg,
		proto:        proto,
		ln:           ln,
		reg:          metrics.New(),
		runs:         progress.NewRegistry(cfg.KeepFinished),
		wall:         trace.NewWall(0),
		started:      time.Now(),
		queue:        make(chan *job, cfg.QueueDepth),
		quit:         make(chan struct{}),
		dispatchDone: make(chan struct{}),
		serveDone:    make(chan struct{}),
	}
	wallBounds := metrics.PowerOfTwoBounds(30)
	s.histQueueWait = s.reg.Histogram("serve/queue/wait_us", wallBounds)
	s.histRunDur = s.reg.Histogram("serve/run/duration_us", wallBounds)
	s.histImbalance = s.reg.Histogram("lifetime/batch/imbalance_permille", wallBounds)
	s.gQueueDepth = s.reg.Gauge("serve/queue/depth")

	m := obshttp.NewMux(fmt.Sprintf("casa-serve (%s engine)", proto.Name()))
	m.Handle("/v1/seed", s.handleSeed, nil, http.MethodPost)
	m.Runs(s.runs, nil)
	m.Handle("/v1/stats", s.handleStats, nil, http.MethodGet)
	m.Handle("/healthz", s.handleHealthz, nil, http.MethodGet)
	m.Metrics(s.reg)
	m.Trace("/walltrace", obshttp.WallDoc(s.wall), "")
	m.Pprof()

	s.srv = &http.Server{
		// Every request passes through the instrumentation middleware:
		// per-endpoint wall-clock metrics into the serving registry and
		// one access-log record per request, run-ID-correlated.
		Handler: obshttp.Instrument(m, s.reg, cfg.Log),
		// A seed request legitimately waits behind the queue for minutes,
		// so there is no fixed write budget; slowloris protection comes
		// from the header/read timeouts, and queue admission bounds how
		// many such long-lived requests exist.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       time.Minute,
		IdleTimeout:       time.Minute,
	}
	go func() {
		defer close(s.serveDone)
		if err := s.srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			s.mu.Lock()
			s.err = err
			s.mu.Unlock()
		}
	}()
	go s.dispatch()
	return s, nil
}

// Addr returns the bound listen address (useful with port 0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Runs returns the run registry (snapshots of live and recent runs).
func (s *Server) Runs() *progress.Registry { return s.runs }

// dispatch is the serving loop: one queued run at a time, in FIFO order.
// After quit (the listener has drained, so no handler can enqueue) it
// flushes whatever is left — jobs whose clients disconnected while
// queued — and exits.
func (s *Server) dispatch() {
	defer close(s.dispatchDone)
	for {
		select {
		case j := <-s.queue:
			s.gQueueDepth.Set(float64(len(s.queue)))
			s.runJob(j)
		case <-s.quit:
			for {
				select {
				case j := <-s.queue:
					s.gQueueDepth.Set(float64(len(s.queue)))
					s.runJob(j)
				default:
					return
				}
			}
		}
	}
}

// runJob seeds one request's batch on a fresh engine clone. Cancelled
// jobs (client gone while queued) finish their tracker and report the
// empty prefix without touching the engine.
func (s *Server) runJob(j *job) {
	j.started = time.Now()
	rep := &Report{
		Schema:  ReportSchema,
		RunID:   j.tracker.RunID(),
		Engine:  s.proto.Name(),
		MinSMEM: s.cfg.EngineOptions.MinSMEM,
		Workers: j.tracker.Workers(),
	}
	if err := j.ctx.Err(); err != nil {
		j.tracker.Finish()
		rep.Interrupted = true
		rep.Metrics = metrics.New()
		j.finished = j.started // never ran: a zero-length running span
		s.reg.Counter("serve/runs/cancelled").Add(1)
		s.recordLifecycle(j)
		j.done <- rep
		return
	}
	eng := s.proto.Clone()
	reg := metrics.New()
	// Each run records its pool's wall spans into a private recorder —
	// sized to the run, so a huge batch cannot evict other runs' lifecycle
	// spans — then foldRunWall nests them under this run's lifecycle trace
	// and feeds the lifetime worker-utilization instruments.
	runWall := trace.NewWall(0)
	pool := batch.Options{
		Workers:  s.cfg.Workers,
		Metrics:  reg,
		Progress: j.tracker,
		Wall:     runWall,
	}
	res, done, err := batch.SeedEngineCtx(j.ctx, eng, j.reads, pool)
	j.tracker.Finish()
	smems := eng.SMEMs(res)
	total := 0
	for _, ms := range smems[:done] {
		total += len(ms)
	}
	rep.Reads = done
	rep.SMEMs = total
	rep.Interrupted = err != nil
	rep.Metrics = reg
	if j.names != nil {
		rep.Results = make([]ReadSMEMs, done)
		for i := 0; i < done; i++ {
			rep.Results[i] = ReadSMEMs{Name: j.names[i], SMEMs: toSMEMs(smems[i])}
		}
	}
	j.finished = time.Now()
	s.reg.Counter("serve/reads/seeded").Add(int64(done))
	s.reg.Counter("serve/runs/completed").Add(1)
	if err != nil {
		s.reg.Counter("serve/runs/cancelled").Add(1)
	}
	// Fold this run's engine registry into the server's lifetime
	// aggregate. The per-request registry the report carries is untouched
	// — reports stay byte-identical to offline runs — while /metrics
	// accumulates lifetime/casa/reads/seeded and friends across runs.
	if skipped := s.reg.MergePrefixed(reg, "lifetime"); skipped > 0 {
		s.reg.Counter("serve/lifetime/skipped_names").Add(int64(skipped))
	}
	s.foldRunWall(rep.RunID, runWall)
	s.recordLifecycle(j)
	s.cfg.Log.Info("run finished", "run_id", rep.RunID, "reads", done, "smems", total, "interrupted", rep.Interrupted,
		"queue_wait_us", maxZero(j.started.Sub(j.queued).Microseconds()),
		"run_us", j.finished.Sub(j.started).Microseconds())
	j.done <- rep
}

// handleSeed admits one read batch into the queue and answers with the
// run's report — as one JSON document, or as an SSE stream of per-shard
// progress events followed by the final "report" event when the client
// asks for text/event-stream.
func (s *Server) handleSeed(w http.ResponseWriter, r *http.Request) {
	received := time.Now()
	if s.draining.Load() {
		http.Error(w, "server is draining", http.StatusServiceUnavailable)
		return
	}
	wantResults, err := parseInclude(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	recs, err := readBatch(r)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, fmt.Sprintf("read batch exceeds %d bytes", tooBig.Limit), http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if len(recs) == 0 {
		http.Error(w, "read batch holds no records", http.StatusBadRequest)
		return
	}
	reads := make([]dna.Sequence, len(recs))
	names := make([]string, len(recs))
	for i, rec := range recs {
		reads[i], names[i] = rec.Seq, rec.Name
	}
	if err := engine.CheckReads(s.proto, reads, names); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if !wantResults {
		names = nil
	}

	runID := progress.NewRunID()
	workers := batch.Options{Workers: s.cfg.Workers}.WorkerCount()
	tracker := progress.New(runID, s.proto.Name(), workers, int64(len(reads)))
	j := &job{
		ctx: r.Context(), reads: reads, names: names, tracker: tracker,
		done:     make(chan *Report, 1),
		received: received, parsed: time.Now(),
	}
	j.queued = time.Now()
	select {
	case s.queue <- j:
		s.gQueueDepth.Set(float64(len(s.queue)))
	default:
		s.reg.Counter("serve/runs/rejected").Add(1)
		// The hint extrapolates from observed run durations: everything
		// ahead of a retrying client (the queue plus the running request)
		// times the median run, clamped. Before any run completes there
		// is nothing to extrapolate from and the hint is 1s.
		w.Header().Set("Retry-After",
			strconv.Itoa(retryAfterSeconds(len(s.queue), s.histRunDur.Quantile(0.5))))
		http.Error(w, "seed queue is full, retry later", http.StatusTooManyRequests)
		return
	}
	s.reg.Counter("serve/runs/accepted").Add(1)
	if err := s.runs.Add(tracker); err != nil {
		// Run IDs are 64-bit random; a collision is effectively a broken
		// RNG. The run still executes, it is just not addressable.
		s.cfg.Log.Warn("run not registered", "run_id", runID, "err", err)
	}
	s.cfg.Log.Info("run accepted", "run_id", runID, "reads", len(reads), "queued", len(s.queue))
	w.Header().Set("X-Casa-Run", runID)

	if strings.Contains(r.Header.Get("Accept"), "text/event-stream") {
		s.streamSeed(w, r, j)
		return
	}
	select {
	case rep := <-j.done:
		obshttp.WriteJSON(w, rep)
		s.recordReporting(j, time.Now())
	case <-r.Context().Done():
		// Client gone: the dispatcher observes the cancelled context —
		// mid-run it drains the claimed shards, queued it skips the job —
		// and the buffered done channel absorbs the report.
	}
}

// streamSeed answers one admitted job as an SSE stream: the run's
// progress events (obshttp.StreamRun) and the terminal "report" event.
func (s *Server) streamSeed(w http.ResponseWriter, r *http.Request, j *job) {
	s.reg.Counter("serve/sse/streams").Add(1)
	active := s.reg.Gauge("serve/sse/active")
	active.Add(1)
	defer active.Add(-1)
	es := obshttp.StreamRun(w, r, j.tracker, nil)
	if es == nil {
		return
	}
	select {
	case rep := <-j.done:
		_ = es.Emit("report", rep)
		s.recordReporting(j, time.Now())
	case <-r.Context().Done():
	}
}

// parseInclude reports whether the client asked for per-read SMEM sets
// in the report (?include=smems). Unknown values are an error: silently
// ignoring a typo ("smem") would hand back a report without the results
// the client asked for, which reads like an empty run.
func parseInclude(r *http.Request) (smems bool, err error) {
	for _, v := range r.URL.Query()["include"] {
		switch v {
		case "smems":
			smems = true
		case "":
			// ?include= with no value: a harmless no-op.
		default:
			return false, fmt.Errorf("unknown include value %q (supported: smems)", v)
		}
	}
	return smems, nil
}

// handleHealthz distinguishes a serving process from a draining one, the
// readiness signal load balancers and the smoke test key on. The body
// carries the build identity so "which build is this replica running?"
// is one curl, not a deploy-log archaeology session; status-code-only
// consumers are unaffected.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	obshttp.WriteJSON(w, struct {
		Status string         `json:"status"`
		Engine string         `json:"engine"`
		Build  buildinfo.Info `json:"build_info"`
	}{Status: "ok", Engine: s.proto.Name(), Build: buildinfo.Current()})
}

// RunTrace returns the wall-clock run lifecycle trace (for casa-serve's
// -walltrace file at shutdown).
func (s *Server) RunTrace() *trace.WallTrace { return s.wall }

// Metrics returns the process-level serving registry (for a final flush
// at shutdown).
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// Shutdown drains gracefully: stop accepting (new seeds answer 503
// while existing connections settle, then the listener closes), wait for
// every in-flight and queued run to finish and its handler to answer,
// then stop the dispatcher. It returns the first background serve error,
// if any.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	err := s.srv.Shutdown(ctx)
	// The listener has drained (or ctx expired): no handler can enqueue
	// anymore, so the dispatcher can flush and exit.
	s.quitOnce.Do(func() { close(s.quit) })
	<-s.dispatchDone
	<-s.serveDone
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	return err
}

// Close is Shutdown with a 30-second drain budget.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return s.Shutdown(ctx)
}
