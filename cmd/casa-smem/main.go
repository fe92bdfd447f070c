// Command casa-smem computes SMEMs for reads against a reference with any
// engine registered in internal/engine (casa, ert, genax, cpu, fmindex,
// brute — `-engine list` prints them) and optionally cross-checks
// two engines against each other, mirroring the paper's §6 validation
// ("CASA produces identical SMEMs to GenAx and 100% SMEMs of BWA-MEM2 are
// contained").
//
// Reads stream through the read stream casa-align shares
// (internal/runcli Run.OpenReads and Run.Stream): the FASTQ is parsed in
// its own goroutine, at most two batches ahead, while the index loads;
// each batch is seeded on the worker pool (-workers) and its lines are
// written as soon as it is seeded, in input order regardless of
// completion order; the engine's model is reduced once over the whole
// run, so every counter and gauge equals a one-batch run's. -verify
// cross-checks each batch's forward SMEMs against a second engine as the
// batch is seeded and prints each mismatching read to stderr. The run is
// interruptible: SIGINT stops handing out new shards, drains the
// in-flight ones, writes the current batch's completed prefix, and the
// command still emits its summary (with -verify, the mismatches over
// that prefix), metrics and trace for the completed read prefix before
// exiting with status 130.
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
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"

	"casa/internal/runcli"
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
	// the two flows compare directly in casa-trace's wall report; the
	// stream records seed and one output span per batch.
	loadStart := time.Now()
	src := r.OpenReads(*readsPath, "", batchSize, *maxReads, func() { r.Phase("load", loadStart) })
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

	printLines := !*quiet && !*jsonOut
	totalSMEMs := 0
	var lines []byte
	done, mismatches, interrupted := r.Stream(eng, src, func(b runcli.Batch) error {
		lines = lines[:0]
		for i, s := range b.Seeds {
			totalSMEMs += len(s.Forward)
			if printLines {
				lines = appendReadLine(lines, b.Records[i].Name, s.Forward)
			}
		}
		if len(lines) == 0 {
			return nil
		}
		_, err := os.Stdout.Write(lines)
		return err
	})

	r.Finish(interrupted, func() bool {
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
			if r.Verify != "" {
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
