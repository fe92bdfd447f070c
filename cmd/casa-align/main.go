// Command casa-align is a complete single- and paired-end short-read
// aligner built from this repository's components, mirroring the paper's
// §5 system: a registry engine seeds reads (SMEMs + hit positions), 5
// SeedEx machines extend the seeds with banded Smith-Waterman and verify
// with Myers edit machines, and alignments stream out as SAM.
//
// Seeding and extension both run on the -workers pool. The reads (the
// two mate files read in lockstep in paired mode) stream through the
// read stream casa-smem shares (internal/runcli Run.OpenReads and
// Run.Stream): the next batch of -batch reads or pairs is parsed while
// the current one is seeded. Each seeded batch goes to the align path
// in internal/pipeline (pipeline.Aligner): its reads (whole pairs in
// paired mode) are split into shards that workers place, rescue and
// turn into SAM records, each worker with its own SeedEx machine, and
// the records come back in read order, so the SAM and the modelled
// seedex counters are the same at any worker count. This command keeps
// the flags, the SAM output and its header, and the runcli wiring. The
// seeding model is reduced once per run, so the engine's counters and
// model gauges cover every read whatever the batch size.
//
// Any engine registered in internal/engine can seed (-engine; "list"
// prints them). casa resolves both strands and hit positions natively;
// engines that do not seed both strands seed the reverse complements in
// a second pass, and engines that do not place their hits fall back to
// engine.Positions. -verify cross-checks the seeding engine's forward
// SMEMs against a second engine batch by batch, as casa-smem does; that
// engine's model, like the seeding engine's, is reduced once per run.
//
// The run is interruptible, also while a piped -reads is slow to arrive:
// SIGINT stops seeding new shards, the current batch's completed prefix
// is extended and written, and the command
// flushes the SAM output plus partial metrics/trace before exiting with
// status 130. Live state is observable the same way as casa-smem: -http
// serves the run at /v1/runs/{id} and /v1/runs/{id}/events, -progress
// logs terminal snapshots, -stall-timeout arms a watchdog; diagnostics
// are run-scoped structured logs on stderr (-log-level, -log-format).
//
// Usage:
//
//	casa-align -ref ref.fa -reads reads.fq [-out out.sam]            # single-end
//	casa-align -ref ref.fa -reads r1.fq -reads2 r2.fq [-out out.sam] # paired-end
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"casa/internal/pipeline"
	"casa/internal/runcli"
	"casa/internal/sam"
	"casa/internal/seedex"
	_ "casa/internal/shard" // registers the sharded:<name> composites
)

func main() {
	var (
		readsPath = flag.String("reads", "", "reads FASTQ (required; mate 1 in paired mode)")
		reads2    = flag.String("reads2", "", "mate-2 FASTQ (enables paired-end mode)")
		outPath   = flag.String("out", "-", "SAM output path (- = stdout)")
		maxHits   = flag.Int("max-hits", 4, "extension candidates per SMEM")
		batchSize = flag.Int("batch", 4096, "reads seeded per batch")
	)
	// SIGINT cancels r.Ctx: seeding drains its in-flight shards, the
	// completed prefix is aligned and flushed, partial telemetry is
	// written, and the command exits 130.
	r := runcli.Begin(runcli.Align)
	if *batchSize < 1 {
		fmt.Fprintf(os.Stderr, "casa-align: -batch %d: want at least 1\n", *batchSize)
		os.Exit(2)
	}

	// The reference is parsed once: the same index feeds the engine (or
	// the -index cross-check), extension and the SAM header. The wall
	// trace records that parse as the load phase and the seeding
	// engines' and the extension machine's construction as build; the
	// stream records seed and, per batch, its extension and SAM write as
	// an output phase.
	loadStart := time.Now()
	ix, err := r.Reference()
	if err != nil {
		r.Fatal(err)
	}
	r.Phase("load", loadStart)
	buildStart := time.Now()
	eng, err := r.Engine(ix)
	if err != nil {
		r.Fatal(err)
	}
	sx, err := seedex.New(ix.Flat(), seedex.DefaultConfig())
	if err != nil {
		r.Fatal(err)
	}
	r.Phase("build", buildStart)

	var out io.Writer = os.Stdout
	if *outPath != "-" {
		f, err := os.Create(*outPath)
		if err != nil {
			r.Fatal(err)
		}
		out = f
	}
	var refSeqs []sam.RefSeq
	for _, c := range ix.Chromosomes() {
		refSeqs = append(refSeqs, sam.RefSeq{Name: c.Name, Length: c.Length})
	}
	writer := sam.NewWriter(out, refSeqs, "casa-align")
	// The input streams in batches, so the read total is unknown upfront
	// (single-end) or learned at load (paired): the tracker starts at 0
	// and grows via AddTotal, and percent/ETA stay 0 until it is known.
	r.Start(0, "workers", r.Pool().WorkerCount(), "batch", *batchSize, "paired", *reads2 != "")
	a := pipeline.NewAligner(r.Ctx, eng, ix, sx, *maxHits, r.Pool(), *reads2 != "")
	var aligned, total int
	emit := func(b runcli.Batch) error {
		recs := a.Align(b.Batch, b.Records)
		total += len(recs)
		for _, rec := range recs {
			if rec.Flag&sam.FlagUnmapped == 0 {
				aligned++
			}
			if err := writer.Write(rec); err != nil {
				return err
			}
		}
		return nil
	}
	_, mismatches, interrupted := r.Stream(eng, r.OpenReads(*readsPath, *reads2, *batchSize, 0, nil), emit)
	if err := writer.Flush(); err != nil {
		r.Fatal(err)
	}
	sx.Stats.Add(a.Stats())
	sx.PublishMetrics(r.Registry)
	r.Registry.Counter("align/reads/total").Add(int64(total))
	r.Registry.Counter("align/reads/aligned").Add(int64(aligned))
	r.Log.Info("alignment finished", "aligned", aligned, "reads", total, "interrupted", interrupted)
	if r.Verify != "" {
		r.Log.Info("seed verification finished", "verify", r.Verify, "mismatches", mismatches)
	}
	r.Finish(interrupted, func() bool { return mismatches > 0 })
}
