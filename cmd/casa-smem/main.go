// Command casa-smem computes SMEMs for reads against a reference with any
// engine registered in internal/engine (casa, ert, genax, cpu, fmindex,
// brute — `-engine list` prints them) and optionally cross-checks
// two engines against each other, mirroring the paper's §6 validation
// ("CASA produces identical SMEMs to GenAx and 100% SMEMs of BWA-MEM2 are
// contained").
//
// Reads stream through one ordered batch pipeline (internal/batch
// Stream): the FASTQ is parsed in its own goroutine, at most two batches
// ahead, while the index loads; each batch is seeded on the worker pool
// (-workers) and its lines are written and flushed as soon as it is
// seeded, in input order regardless of completion order; the engine's
// model is reduced once over the whole run, so every counter and gauge
// equals a one-batch run's. The run is interruptible: SIGINT stops
// handing out new shards, drains the in-flight ones, writes the current
// batch's completed prefix, and the command still emits its summary,
// metrics and trace for the completed read prefix before exiting with
// status 130.
//
// Observability (see docs/OBSERVABILITY.md): every engine publishes its
// activity counters and model gauges into a metrics registry, and every
// run drives a live casa-progress/v1 tracker. -json emits a stable
// machine-readable report (schema casa-smem/v1) on stdout; -metrics
// writes the Prometheus-style text exposition to stderr; -trace records
// the run's cycle-domain spans (casa-trace/v1 Chrome JSON) with optional
// -trace-sample sampling; -walltrace records the host wall-clock profile
// (casa-walltrace/v1: per-shard worker spans plus the CLI's
// load/build/seed phases); casa-trace analyzes either file;
// -http serves the run at /v1/runs/{id} and /v1/runs/{id}/events, with
// /metrics, /trace, /walltrace and /debug/pprof/, until interrupted; -progress logs periodic snapshots for non-HTTP runs;
// -stall-timeout arms a watchdog that dumps per-worker state and
// goroutines when no shard completes in time. Diagnostics go to stderr
// as run-scoped structured logs (-log-level, -log-format). The shared
// flags and this whole sidecar live in internal/runcli.
//
// Usage:
//
//	casa-smem -ref ref.fa -reads reads.fq -engine casa [-verify fmindex] [-min-smem 19] [-workers 8] [-json] [-metrics] [-trace out.json] [-trace-sample slowest:100] [-walltrace wall.json] [-http localhost:6060] [-progress 5s] [-stall-timeout 1m] [-log-format json]
//	casa-smem -index ref.casaidx -reads reads.fq [-json]
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	"casa/internal/batch"
	"casa/internal/dna"
	"casa/internal/engine"
	"casa/internal/runcli"
	"casa/internal/seqio"
	"casa/internal/serve"
	_ "casa/internal/shard" // registers the sharded:<name> composites
	"casa/internal/smem"
)

// The -json output document is serve.Report: the CLI and the casa-serve
// HTTP API share one casa-smem/v1 type, so a batch seeded offline and one
// POSTed to /v1/seed produce byte-identical modelled fields.

// batchSize is the number of reads seeded and written per batch. Output,
// metrics and traces do not depend on it; tests shrink it to split their
// fixtures into several batches.
var batchSize = 4096

func main() {
	var (
		readsPath = flag.String("reads", "", "reads FASTQ (required)")
		maxReads  = flag.Int("max-reads", 1000, "cap the number of reads (0 = all)")
		quiet     = flag.Bool("quiet", false, "suppress per-read output (counts only)")
		jsonOut   = flag.Bool("json", false, "emit a "+serve.ReportSchema+" JSON report on stdout instead of text")
	)
	// SIGINT cancels r.Ctx: the pool drains in-flight shards, the
	// completed prefix is reported with its telemetry, and the command
	// exits 130.
	r := runcli.Begin(runcli.Smem)

	// The wall trace profiles the CLI's own phases next to the batch
	// layer's per-shard worker spans. load ends with the FASTQ parse,
	// which runs alongside the reference load, the engine build (or index
	// load) and seeding; build covers only that engine construction, so
	// the two flows compare directly in casa-trace's wall report; seed
	// covers the stream, and each batch's write is an output span.
	loadStart := time.Now()
	in, err := os.Open(*readsPath)
	if err != nil {
		r.Fatal(err)
	}
	stop := make(chan struct{})
	batches := parseBatches(in, *maxReads, batchSize, stop, func() { r.Phase("load", loadStart) })
	ix, err := r.Reference()
	if err != nil {
		r.Fatal(err)
	}
	r.Start(0, "workers", r.Pool().WorkerCount(), "batch", batchSize, "max_reads", *maxReads, "min_smem", r.MinSMEM)

	buildStart := time.Now()
	eng, err := r.Engine(ix)
	if err != nil {
		r.Fatal(err)
	}
	r.Phase("build", buildStart)

	// The verify pass re-seeds every read after the stream, so only a
	// verified run keeps them with their names.
	verify := r.Verify != ""
	var names, allNames []string
	var allReads []dna.Sequence
	next := func() ([]dna.Sequence, error) {
		var b readBatch
		var ok bool
		select {
		case b, ok = <-batches:
		case <-r.Ctx.Done():
			// An interrupt while the input is slow to arrive (a pipe)
			// ends the run without waiting for the next batch.
			return nil, r.Ctx.Err()
		}
		if !ok {
			return nil, io.EOF
		}
		if b.err != nil {
			return nil, b.err
		}
		if err := engine.CheckReads(eng, b.reads, b.names); err != nil {
			return nil, err
		}
		r.Tracker.AddTotal(int64(len(b.reads)))
		names = b.names
		if verify {
			allReads = append(allReads, b.reads...)
			allNames = append(allNames, b.names...)
		}
		return b.reads, nil
	}
	printLines := !*quiet && !*jsonOut
	totalSMEMs := 0
	var lines []byte
	emit := func(b batch.Batch) error {
		start := time.Now()
		lines = lines[:0]
		for i, s := range b.Seeds {
			totalSMEMs += len(s.Forward)
			if printLines {
				lines = appendReadLine(lines, names[i], s.Forward)
			}
		}
		if len(lines) > 0 {
			if _, err := os.Stdout.Write(lines); err != nil {
				return err
			}
		}
		r.Phase("output", start)
		return nil
	}
	seedStart := time.Now()
	res, done, runErr := batch.Stream(r.Ctx, eng, next, emit, r.Pool())
	r.Phase("seed", seedStart)
	close(stop)
	r.Tracker.Finish()
	interrupted := errors.Is(runErr, context.Canceled)
	if runErr != nil && !interrupted {
		r.Fatal(runErr)
	}
	if interrupted {
		r.Log.Warn("run interrupted; reporting the completed prefix", "reads_done", done)
	}

	var got, want [][]smem.Match
	vdone := 0
	verified := verify && !interrupted
	if verified {
		got = eng.SMEMs(res)
		ver, err := engine.New(r.Verify, ix.Flat(), r.Options)
		if err != nil {
			r.Fatal(err)
		}
		// The verify pass reuses the metrics/trace sinks (both engines'
		// spans land in one trace as separate processes) but not the
		// progress tracker — the live run it describes is finished.
		vpool := r.Pool()
		vpool.Progress = nil
		vres, n, err := batch.SeedEngineCtx(r.Ctx, ver, allReads, vpool)
		want, vdone = ver.SMEMs(vres), n
		if err != nil {
			interrupted = true
			r.Log.Warn("verify pass interrupted; cross-checking the completed prefix",
				"reads_verified", vdone)
		}
	}

	r.Finish(interrupted, func() bool {
		mismatches := 0
		for i := 0; i < vdone; i++ {
			if !smem.SameIntervals(got[i], want[i]) {
				mismatches++
				fmt.Fprintf(os.Stderr, "MISMATCH %s:\n  %s: %v\n  %s: %v\n", allNames[i], r.EngineName, got[i], r.Verify, want[i])
			}
		}
		if *jsonOut {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(serve.Report{
				Schema:      serve.ReportSchema,
				RunID:       r.RunID,
				Engine:      r.EngineName,
				Verify:      r.Verify,
				MinSMEM:     r.MinSMEM,
				Workers:     r.Pool().WorkerCount(),
				Reads:       done,
				SMEMs:       totalSMEMs,
				Mismatches:  mismatches,
				Interrupted: interrupted,
				Metrics:     r.Registry,
			}); err != nil {
				r.Fatal(err)
			}
		} else {
			fmt.Printf("\n%d reads, %d SMEMs via %s", done, totalSMEMs, r.EngineName)
			if verified {
				fmt.Printf("; %d mismatches vs %s", mismatches, r.Verify)
			}
			if interrupted {
				fmt.Printf(" (interrupted after %d reads)", done)
			}
			fmt.Println()
		}
		return mismatches > 0
	})
}

// appendReadLine appends one read's report line: its name, its SMEM
// count and each SMEM, tab-separated.
func appendReadLine(b []byte, name string, ms []smem.Match) []byte {
	b = append(b, name...)
	b = append(b, '\t')
	b = strconv.AppendInt(b, int64(len(ms)), 10)
	b = append(b, " SMEMs"...)
	for _, m := range ms {
		b = append(b, '\t')
		b = m.Append(b)
	}
	return append(b, '\n')
}

// readBatch is one parsed batch of reads with their names, or the parse
// error that ended the input.
type readBatch struct {
	reads []dna.Sequence
	names []string
	err   error
}

// parseBatches parses the FASTQ in its own goroutine into batches of up
// to size reads. It runs at most two batches ahead of the consumer: one
// waits in the channel, one is parsed or waiting to be sent. It stops
// after maxReads reads (0 = all) without reading further, after sending
// a parse error, or when stop is closed; then it calls done and closes
// the channel.
func parseBatches(in io.ReadCloser, maxReads, size int, stop <-chan struct{}, done func()) <-chan readBatch {
	ch := make(chan readBatch, 1)
	send := func(b readBatch) bool {
		select {
		case ch <- b:
			return true
		case <-stop:
			return false
		}
	}
	go func() {
		defer close(ch)
		defer done()
		defer in.Close()
		fr := seqio.NewFastqReader(in)
		for total := 0; maxReads <= 0 || total < maxReads; {
			n := size
			if maxReads > 0 {
				n = min(n, maxReads-total)
			}
			b := readBatch{reads: make([]dna.Sequence, 0, n), names: make([]string, 0, n)}
			var err error
			for len(b.reads) < n {
				var rec seqio.Record
				if rec, err = fr.Next(); err != nil {
					break
				}
				b.reads = append(b.reads, rec.Seq)
				b.names = append(b.names, rec.Name)
			}
			total += len(b.reads)
			if len(b.reads) > 0 && !send(b) {
				return
			}
			if err != nil {
				if err != io.EOF {
					send(readBatch{err: err})
				}
				return
			}
		}
	}()
	return ch
}
