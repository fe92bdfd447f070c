// Package obshttp is the run-observation HTTP surface: one handler set
// (handlers.go) that both the CLIs' -http sidecar (Server, here) and
// casa-serve (internal/serve) mount, so each fact of a run has one path
// in every command:
//
//	/v1/runs, /v1/runs/{id}   the runs of a progress.Registry and each
//	                          run's casa-progress/v1 snapshot
//	/v1/runs/{id}/events      a Server-Sent Events stream of snapshots
//	                          ending with "done"
//	/trace, /walltrace        the cycle trace (casa-trace/v1) and the host
//	                          wall-clock trace (casa-walltrace/v1)
//	/metrics, /debug/pprof/   the Prometheus exposition and the profiles
//
// A CLI run is the one run in its sidecar's registry, under the run_id
// its log lines carry. The sidecar binds a dedicated mux (no default-mux
// pprof leak), can bind port 0 for tests, and shuts down gracefully.
package obshttp

import (
	"context"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"casa/internal/metrics"
	"casa/internal/progress"
	"casa/internal/trace"
)

// Server is a running observability sidecar. Create with Start.
type Server struct {
	srv *http.Server
	ln  net.Listener

	mu    sync.Mutex
	spans []trace.Span
	err   error

	quit chan struct{} // closed at Shutdown: unblocks long-lived SSE handlers
	done chan struct{}
}

// Start listens on addr (host:port; port 0 picks a free port) and serves
// in a background goroutine: reg at /metrics (503 when nil), the runs in
// runs at /v1/runs..., the published cycle trace at /trace, wall live at
// /walltrace (503 when nil) and the runtime profiles at /debug/pprof/.
//
// /trace answers 503 until PublishTrace is called: a cycle trace is
// complete only once the run has drained, and publishing a finished
// snapshot keeps the handler race-free against still-emitting workers.
// The wall recorder is safe to read while the run records into it.
func Start(addr string, reg *metrics.Registry, runs *progress.Registry, wall *trace.WallTrace) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		ln:   ln,
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}

	m := NewMux("casa observability endpoints")
	m.Runs(runs, s.quit)
	m.Metrics(reg)
	m.Trace("/trace", s.cycleTrace, "trace not yet available: run with -trace and wait for the run to finish")
	m.Trace("/walltrace", WallDoc(wall), "no wall-clock trace recorded for this run")
	m.Pprof()

	s.srv = &http.Server{
		Handler: m,
		// Slow-client protection without breaking the long pollers: a 30 s
		// CPU profile (/debug/pprof/profile) streams for its whole window,
		// so the write timeout must comfortably exceed it.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       time.Minute,
	}
	go func() {
		defer close(s.done)
		if err := s.srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			s.mu.Lock()
			s.err = err
			s.mu.Unlock()
		}
	}()
	return s, nil
}

// Addr returns the bound listen address (useful with port 0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// cycleTrace returns the writer of the published cycle trace, or nil
// before PublishTrace.
func (s *Server) cycleTrace() TraceDoc {
	s.mu.Lock()
	spans := s.spans
	s.mu.Unlock()
	if spans == nil {
		return nil
	}
	return func(w io.Writer) error { return trace.WriteChrome(w, spans) }
}

// PublishTrace makes spans available at /trace. Call it with the merged
// stream (Trace.Spans) after the run drains; publishing an immutable
// snapshot is what keeps the handler free of data races with workers.
func (s *Server) PublishTrace(spans []trace.Span) {
	s.mu.Lock()
	s.spans = spans
	s.mu.Unlock()
}

// Shutdown gracefully drains in-flight requests and stops the server.
// Long-lived event streams are told to end first (graceful drain would
// otherwise wait on them forever). It returns the first background serve
// error, if any.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	select {
	case <-s.quit:
	default:
		close(s.quit)
	}
	s.mu.Unlock()
	err := s.srv.Shutdown(ctx)
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	return err
}

// Close is Shutdown with a 5-second drain budget.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return s.Shutdown(ctx)
}
