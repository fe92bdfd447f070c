// Command casa-smem computes SMEMs for reads against a reference with any
// engine registered in internal/engine (casa, ert, genax, cpu, fmindex,
// brute — `-engine list` prints them) and optionally cross-checks
// two engines against each other, mirroring the paper's §6 validation
// ("CASA produces identical SMEMs to GenAx and 100% SMEMs of BWA-MEM2 are
// contained").
//
// Reads are seeded as one batch over a worker pool (-workers); results
// are reported in input order regardless of completion order. The run is
// interruptible: SIGINT stops handing out new shards, drains the
// in-flight ones, and the command still emits its report, metrics and
// trace for the completed read prefix before exiting with status 130.
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
// -http serves /metrics, /trace, /progress, /events and /debug/pprof
// until interrupted; -progress logs periodic snapshots for non-HTTP runs;
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
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
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

// findAll seeds reads on the pool and returns the engine's forward-strand
// SMEM sets in input order; on cancellation the slice covers exactly the
// completed read prefix (length n) and err is ctx.Err().
func findAll(ctx context.Context, e engine.Engine, reads []dna.Sequence, pool batch.Options) ([][]smem.Match, int, error) {
	res, done, err := batch.SeedEngineCtx(ctx, e, reads, pool)
	return e.SMEMs(res), done, err
}

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
	// layer's per-shard worker spans. The build phase either constructs
	// the engine from the reference or loads the prebuilt index, so the
	// two flows compare directly in casa-trace's wall report.
	loadStart := time.Now()
	ix, err := r.Reference()
	if err != nil {
		r.Fatal(err)
	}
	reads, names, err := loadReads(*readsPath, *maxReads)
	if err != nil {
		r.Fatal(err)
	}
	r.Phase("load", loadStart)
	r.Start(int64(len(reads)), "reads", len(reads), "workers", r.Pool().WorkerCount(), "min_smem", r.MinSMEM)

	buildStart := time.Now()
	eng, err := r.Engine(ix)
	if err != nil {
		r.Fatal(err)
	}
	r.Phase("build", buildStart)
	seedStart := time.Now()
	got, done, runErr := findAll(r.Ctx, eng, reads, r.Pool())
	r.Phase("seed", seedStart)
	r.Tracker.Finish()
	interrupted := runErr != nil
	if interrupted {
		r.Log.Warn("run interrupted; reporting the completed prefix",
			"reads_done", done, "total_reads", len(reads))
	}

	var want [][]smem.Match
	vdone := 0
	if r.Verify != "" && !interrupted {
		ver, err := engine.New(r.Verify, ix.Flat(), r.Options)
		if err != nil {
			r.Fatal(err)
		}
		// The verify pass reuses the metrics/trace sinks (both engines'
		// spans land in one trace as separate processes) but not the
		// progress tracker — the live run it describes is finished.
		vpool := r.Pool()
		vpool.Progress = nil
		want, vdone, err = findAll(r.Ctx, ver, reads, vpool)
		if err != nil {
			interrupted = true
			r.Log.Warn("verify pass interrupted; cross-checking the completed prefix",
				"reads_verified", vdone)
		}
	}

	r.Finish(interrupted, func() bool {
		// Per-read lines go through one buffer, so the report costs a few
		// large writes instead of several per read. It is flushed before
		// the summary or the JSON report, which keeps stdout's bytes in
		// order.
		out := bufio.NewWriter(os.Stdout)
		totalSMEMs, mismatches := 0, 0
		for i := 0; i < done; i++ {
			ms := got[i]
			totalSMEMs += len(ms)
			if !*quiet && !*jsonOut {
				fmt.Fprintf(out, "%s\t%d SMEMs", names[i], len(ms))
				for _, m := range ms {
					fmt.Fprintf(out, "\t%s", m)
				}
				out.WriteByte('\n')
			}
			if want != nil && i < vdone && !smem.SameIntervals(ms, want[i]) {
				mismatches++
				fmt.Fprintf(os.Stderr, "MISMATCH %s:\n  %s: %v\n  %s: %v\n", names[i], r.EngineName, ms, r.Verify, want[i])
			}
		}
		if err := out.Flush(); err != nil {
			r.Fatal(err)
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
			if want != nil {
				fmt.Printf("; %d mismatches vs %s", mismatches, r.Verify)
			}
			if interrupted {
				fmt.Printf(" (interrupted: %d of %d reads)", done, len(reads))
			}
			fmt.Println()
		}
		return mismatches > 0
	})
}

func loadReads(readsPath string, maxReads int) ([]dna.Sequence, []string, error) {
	qf, err := os.Open(readsPath)
	if err != nil {
		return nil, nil, err
	}
	defer qf.Close()
	var reads []dna.Sequence
	var names []string
	err = seqio.ForEachFastq(qf, func(rec seqio.Record) error {
		if maxReads > 0 && len(reads) >= maxReads {
			return nil
		}
		reads = append(reads, rec.Seq)
		names = append(names, rec.Name)
		return nil
	})
	return reads, names, err
}
