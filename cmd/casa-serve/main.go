// Command casa-serve is the seeding front door: it loads a reference
// FASTA once, builds one engine from the internal/engine registry
// (-engine; "list" prints the catalogue), and serves read batches over
// HTTP until terminated — the long-running counterpart of casa-smem's
// one-shot batch run (see internal/serve for the API and queueing
// semantics).
//
//	POST /v1/seed               submit a FASTA/FASTQ batch (raw body or
//	                            curl -F reads=@reads.fq); answers a
//	                            casa-smem/v1 JSON report, or an SSE stream
//	                            of per-shard progress events then the
//	                            report with Accept: text/event-stream;
//	                            ?include=smems adds per-read SMEM sets
//	GET  /v1/runs[/{id}]        run inventory / casa-progress/v1 snapshots
//	GET  /v1/runs/{id}/events   one run's SSE progress stream, then "done"
//	GET  /v1/stats              lifetime summary (casa-serve-stats/v1 JSON)
//	GET  /healthz, /metrics, /walltrace, /debug/pprof/
//
// The run, trace, metrics and profile endpoints are the same handlers,
// at the same paths, as the CLIs' -http sidecar (internal/obshttp).
//
// A full queue answers 429 with a Retry-After derived from observed run
// durations; disconnected clients free their slot via the pool's drain
// semantics. SIGTERM/SIGINT drain gracefully: stop accepting, finish the
// in-flight and queued runs, flush metrics (-metrics) and the wall-clock
// run lifecycle trace (-walltrace), exit 0. A second signal kills the
// process. The shared flags, the -index policy and the shutdown writes
// live in internal/runcli; see docs/OBSERVABILITY.md for the serving
// telemetry surface.
//
// Usage:
//
//	casa-serve -ref ref.fa [-addr :8844] [-engine casa] [-min-smem 19] [-workers 8] [-queue 8] [-metrics] [-walltrace run.json] [-log-format json]
//	casa-serve -index ref.casaidx [-addr :8844]
package main

import (
	"flag"
	"fmt"
	"time"

	"casa/internal/runcli"
	"casa/internal/serve"
	_ "casa/internal/shard" // registers the sharded:<name> composites
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:8844", "listen address (port 0 picks a free port)")
		queueDepth = flag.Int("queue", 8, "seed requests queued behind the running one before 429")
		maxBody    = flag.Int64("max-body", 64<<20, "largest accepted read batch in bytes")
	)
	r := runcli.Begin(runcli.Serve)

	ix, err := r.Reference()
	if err != nil {
		r.Fatal(err)
	}
	if ix != nil {
		r.Log.Info("reference loaded", "path", r.Ref, "bases", len(ix.Flat()), "engine", r.EngineName)
	}
	loadStart := time.Now()
	eng, err := r.Engine(ix)
	if err != nil {
		r.Fatal(err)
	}
	if ix == nil {
		r.Log.Info("index loaded", "path", r.Index, "engine", r.EngineName,
			"load_seconds", fmt.Sprintf("%.3f", time.Since(loadStart).Seconds()))
	}
	s, err := serve.StartEngine(*addr, eng, serve.Config{
		Engine:        r.EngineName,
		EngineOptions: r.Options,
		Workers:       r.Workers,
		QueueDepth:    *queueDepth,
		MaxBodyBytes:  *maxBody,
		Log:           r.Log,
	})
	if err != nil {
		r.Fatal(err)
	}
	r.Log.Info("seeding server listening", "addr", s.Addr())

	// The first SIGTERM/SIGINT starts the drain.
	<-r.Ctx.Done()
	r.Log.Info("draining: finishing in-flight and queued runs")
	if err := s.Close(); err != nil {
		r.Fatal(err)
	}
	r.Log.Info("drained, exiting")
	r.Registry, r.Wall = s.Metrics(), s.RunTrace()
	r.Finish(false, nil)
}
