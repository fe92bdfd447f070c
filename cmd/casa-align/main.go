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
// the current one is seeded, then its reads (whole pairs in paired mode)
// are split into shards that workers place, rescue and turn into SAM
// records, each worker with its own SeedEx machine; the records are
// written in read order, so the SAM and the modelled seedex counters
// are the same at any worker count. The seeding model is reduced once
// per run, so the engine's counters and model gauges cover every read
// whatever the batch size.
//
// Any engine registered in internal/engine can seed (-engine; "list"
// prints them). casa resolves both strands and hit positions natively;
// other engines seed the reverse complements in a second pass and fall
// back to a direct-scan positioner. -verify cross-checks the seeding
// engine's forward SMEMs against a second engine batch by batch, as
// casa-smem does; that engine's model, like the seeding engine's, is
// reduced once per run.
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
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"casa/internal/batch"
	"casa/internal/dna"
	"casa/internal/engine"
	"casa/internal/pairing"
	"casa/internal/refidx"
	"casa/internal/runcli"
	"casa/internal/sam"
	"casa/internal/seedex"
	"casa/internal/seqio"
	_ "casa/internal/shard" // registers the sharded:<name> composites
	"casa/internal/smem"
)

// Proper-pair template length window (FR orientation).
const (
	minInsert = 50
	maxInsert = 2000
)

type aligner struct {
	ctx     context.Context
	eng     engine.Engine
	pos     engine.Positioner // nil = engine.Positions over flat
	strands bool              // eng's Seeds carry the reverse strand
	step    int               // reads per unit: 2 in paired mode, mates interleaved
	flat    dna.Sequence
	sxs     []*seedex.Machine // one clone per extension worker
	ix      *refidx.Index
	maxHits int
	pool    batch.Options
	writer  *sam.Writer
	aligned int
	total   int
}

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
	a := newAligner(r.Ctx, eng, ix, sx, *maxHits, r.Pool(), writer, *reads2 != "")
	_, mismatches, interrupted := r.Stream(eng, r.OpenReads(*readsPath, *reads2, *batchSize, 0, nil), a.emit)
	if err := a.writer.Flush(); err != nil {
		r.Fatal(err)
	}
	for _, c := range a.sxs {
		sx.Stats.Add(c.Stats)
	}
	sx.PublishMetrics(r.Registry)
	r.Registry.Counter("align/reads/total").Add(int64(a.total))
	r.Registry.Counter("align/reads/aligned").Add(int64(a.aligned))
	r.Log.Info("alignment finished", "aligned", a.aligned, "reads", a.total, "interrupted", interrupted)
	if r.Verify != "" {
		r.Log.Info("seed verification finished", "verify", r.Verify, "mismatches", mismatches)
	}
	r.Finish(interrupted, func() bool { return mismatches > 0 })
}

// newAligner makes an aligner that completes eng's seeds on pool (a
// second pass over the reverse complements when eng is no
// StrandSeeder), extends with one clone of sx per pool worker and writes
// to writer.
func newAligner(ctx context.Context, eng engine.Engine, ix *refidx.Index, sx *seedex.Machine,
	maxHits int, pool batch.Options, writer *sam.Writer, paired bool) *aligner {
	pos, _ := eng.(engine.Positioner)
	_, strands := eng.(engine.StrandSeeder)
	a := &aligner{
		ctx: ctx, eng: eng, pos: pos, strands: strands, step: 1, flat: ix.Flat(),
		ix: ix, maxHits: maxHits, pool: pool, writer: writer,
	}
	if paired {
		a.step = 2
	}
	a.sxs = make([]*seedex.Machine, pool.WorkerCount())
	for w := range a.sxs {
		a.sxs[w] = sx.Clone()
	}
	return a
}

// emit extends one seeded batch and writes its records in read order.
// On cancellation the batch is the seeded prefix, and only its whole
// pairs are extended and written.
func (a *aligner) emit(b runcli.Batch) error {
	seeds := a.strandSeeds(b.Batch)
	recs, step := b.Records, a.step
	out := make([]sam.Record, len(seeds)/step*step)
	a.extend(len(out), b.Base, func(sx *seedex.Machine, lo, hi int) {
		for k := lo; k < hi; k += step {
			if step == 1 {
				out[k] = a.recordSingle(recs[k], a.place(sx, recs[k].Seq, seeds[k]))
				continue
			}
			r1, r2 := recs[k], recs[k+1]
			p1, p2 := a.rescuePair(r1, r2, a.place(sx, r1.Seq, seeds[k]), a.place(sx, r2.Seq, seeds[k+1]))
			out[k], out[k+1] = a.recordPair(r1, r2, p1, p2)
		}
	})
	a.total += len(out)
	return a.write(out)
}

// strandSeeds completes one seeded batch's seeds. StrandSeeders (casa,
// cpu, ert and genax) resolve both strands in the stream; other engines
// seed the reverse complements in a second pass (outside the progress and
// trace accounting, which counts each read once), and only reads seeded
// on both strands are returned.
func (a *aligner) strandSeeds(b batch.Batch) []engine.Seeds {
	if a.strands {
		return b.Seeds
	}
	side := a.pool
	side.Progress, side.Trace, side.ReadBase = nil, nil, b.Base
	rcs := make([]dna.Sequence, len(b.Reads))
	for i, r := range b.Reads {
		rcs[i] = r.ReverseComplement()
	}
	res, n, _ := batch.SeedEngineCtx(a.ctx, a.eng, rcs, side)
	for i, ms := range a.eng.SMEMs(res)[:n] {
		b.Seeds[i].Reverse = ms
	}
	return b.Seeds[:n]
}

// extendShardsPerWorker is how many extension shards each worker gets
// per batch, so a slow shard (repeat-heavy reads) does not serialize the
// tail.
const extendShardsPerWorker = 4

// extend runs one seeded batch's extension on the pool: n reads split
// into shards of a multiple of a.step reads (so mates stay together),
// fn(sx, lo, hi) on each with the worker's own SeedEx machine. Each shard writes only its own reads' output slots, so no
// locking is needed. The shards show in -walltrace on the "seedex" track,
// named by global read range (base is the batch's first read) like the
// seeding shards.
func (a *aligner) extend(n, base int, fn func(sx *seedex.Machine, lo, hi int)) {
	workers, step := len(a.sxs), a.step
	units := (n + step - 1) / step
	grain := step * max(1, (units+extendShardsPerWorker*workers-1)/(extendShardsPerWorker*workers))
	opt := batch.Options{Workers: workers, Grain: grain, Wall: a.pool.Wall, Engine: seedex.Engine, ReadBase: base}
	batch.Run(n, opt, func(w, lo, hi int) struct{} {
		fn(a.sxs[w], lo, hi)
		return struct{}{}
	})
}

// write emits one batch's records in read order, counting the mapped ones.
func (a *aligner) write(recs []sam.Record) error {
	for _, rec := range recs {
		if rec.Flag&sam.FlagUnmapped == 0 {
			a.aligned++
		}
		if err := a.writer.Write(rec); err != nil {
			return err
		}
	}
	return nil
}

// placement is one read's resolved alignment.
type placement struct {
	ok     bool
	chrom  refidx.Chromosome
	local  int
	rev    bool
	al     seedex.Alignment
	second int
}

// hitPositions resolves an SMEM's reference occurrences: natively for
// positioning engines, through engine.Positions otherwise.
func (a *aligner) hitPositions(strand dna.Sequence, m smem.Match) []int32 {
	if a.pos != nil {
		return a.pos.HitPositions(strand, m, a.maxHits)
	}
	return engine.Positions(a.eng, a.flat, strand, m, a.maxHits)
}

// place extends both strands of one read on sx and resolves the winner
// to a chromosome. It reads only immutable aligner state, so workers call
// it concurrently, each with its own machine.
func (a *aligner) place(sx *seedex.Machine, read dna.Sequence, rs engine.Seeds) placement {
	toSeeds := func(strand dna.Sequence, smems []smem.Match) []seedex.Seed {
		var seeds []seedex.Seed
		for _, m := range smems {
			for _, pos := range a.hitPositions(strand, m) {
				seeds = append(seeds, seedex.Seed{QStart: m.Start, QEnd: m.End, RefPos: pos})
			}
		}
		return seeds
	}
	type cand struct {
		al  seedex.Alignment
		rev bool
	}
	var cands []cand
	if al, ok := sx.ExtendRead(read, toSeeds(read, rs.Forward)); ok {
		cands = append(cands, cand{al, false})
	}
	rc := read.ReverseComplement()
	if al, ok := sx.ExtendRead(rc, toSeeds(rc, rs.Reverse)); ok {
		cands = append(cands, cand{al, true})
	}
	if len(cands) == 0 {
		return placement{}
	}
	best := cands[0]
	second := best.al.SecondScore
	for _, c := range cands[1:] {
		if c.al.Score > best.al.Score {
			second = max(second, best.al.Score)
			best = c
		} else {
			second = max(second, c.al.Score)
		}
	}
	chrom, local, ok := a.ix.ResolveSpan(best.al.RefStart, best.al.Cigar.RefLen())
	if !ok {
		return placement{} // crosses a chromosome spacer: not a real locus
	}
	return placement{ok: true, chrom: chrom, local: local, rev: best.rev, al: best.al, second: second}
}

// recordSingle builds the SAM record for a single-end read.
func (a *aligner) recordSingle(rec seqio.Record, p placement) sam.Record {
	if !p.ok {
		return sam.Unmapped(rec.Name, rec.Seq, rec.Qual)
	}
	return a.baseRecord(rec, p, 0)
}

// baseRecord fills the mapped fields shared by single and paired records.
func (a *aligner) baseRecord(rec seqio.Record, p placement, extraFlags int) sam.Record {
	out := sam.Record{
		QName:        rec.Name,
		Flag:         extraFlags,
		RName:        p.chrom.Name,
		Pos:          p.local + 1,
		MapQ:         sam.MapQFromScores(p.al.Score, p.second, len(rec.Seq)),
		Cigar:        p.al.Cigar,
		EditDistance: p.al.EditDist,
		Score:        p.al.Score,
		HasTags:      true,
	}
	if p.rev {
		out.Flag |= sam.FlagReverse
		out.Seq = rec.Seq.ReverseComplement()
		out.Qual = reverseQual(rec.Qual)
	} else {
		out.Seq = rec.Seq
		out.Qual = rec.Qual
	}
	return out
}

// recordPair builds both mates' records with pair flags, mate fields and
// the proper-pair determination (same chromosome, FR orientation, insert
// within [minInsert, maxInsert]).
func (a *aligner) recordPair(rec1, rec2 seqio.Record, p1, p2 placement) (sam.Record, sam.Record) {
	build := func(rec seqio.Record, p placement, mateFlag int, mate placement) sam.Record {
		var out sam.Record
		if p.ok {
			out = a.baseRecord(rec, p, sam.FlagPaired|mateFlag)
		} else {
			out = sam.Unmapped(rec.Name, rec.Seq, rec.Qual)
			out.Flag |= sam.FlagPaired | mateFlag
		}
		if !mate.ok {
			out.Flag |= sam.FlagMateUnmapped
			return out
		}
		if mate.rev {
			out.Flag |= sam.FlagMateReverse
		}
		if p.ok && mate.chrom.Name == p.chrom.Name {
			out.RNext = "="
		} else {
			out.RNext = mate.chrom.Name
		}
		out.PNext = mate.local + 1
		return out
	}
	rec1Out := build(rec1, p1, sam.FlagFirstInPair, p2)
	rec2Out := build(rec2, p2, sam.FlagLastInPair, p1)

	if proper, tlen := properPair(p1, p2); proper {
		rec1Out.Flag |= sam.FlagProperPair
		rec2Out.Flag |= sam.FlagProperPair
		if p1.local <= p2.local {
			rec1Out.TLen, rec2Out.TLen = tlen, -tlen
		} else {
			rec1Out.TLen, rec2Out.TLen = -tlen, tlen
		}
	}
	return rec1Out, rec2Out
}

// properPair checks FR orientation on one chromosome with a plausible
// template length, returning the length.
func properPair(p1, p2 placement) (bool, int) {
	if !p1.ok || !p2.ok || p1.chrom.Name != p2.chrom.Name {
		return false, 0
	}
	opt := pairing.DefaultOptions()
	opt.MinInsert, opt.MaxInsert = minInsert, maxInsert
	return pairing.Proper(toMate(p1), toMate(p2), opt)
}

// toMate converts a placement into pairing's flat-coordinate view.
func toMate(p placement) pairing.Mate {
	return pairing.Mate{
		Mapped:   p.ok,
		Pos:      p.al.RefStart,
		RefLen:   p.al.Cigar.RefLen(),
		Reverse:  p.rev,
		Score:    p.al.Score,
		EditDist: p.al.EditDist,
		Cigar:    p.al.Cigar,
	}
}

// rescuePair attempts mate rescue when exactly one mate placed: the
// partner's position implies a window for the missing mate, searched with
// a banded fit (internal/pairing).
func (a *aligner) rescuePair(rec1, rec2 seqio.Record, p1, p2 placement) (placement, placement) {
	opt := pairing.DefaultOptions()
	opt.MinInsert, opt.MaxInsert = minInsert, maxInsert
	switch {
	case p1.ok && !p2.ok:
		if m, ok := pairing.Rescue(a.ix.Flat(), rec2.Seq, toMate(p1), opt); ok {
			p2 = a.fromMate(m)
		}
	case p2.ok && !p1.ok:
		if m, ok := pairing.Rescue(a.ix.Flat(), rec1.Seq, toMate(p2), opt); ok {
			p1 = a.fromMate(m)
		}
	}
	return p1, p2
}

// fromMate converts a rescued mate back into a placement (resolving the
// chromosome); rescues landing on a spacer are dropped.
func (a *aligner) fromMate(m pairing.Mate) placement {
	chrom, local, ok := a.ix.ResolveSpan(m.Pos, m.RefLen)
	if !ok {
		return placement{}
	}
	return placement{
		ok: true, chrom: chrom, local: local, rev: m.Reverse,
		al: seedex.Alignment{
			Score: m.Score, RefStart: m.Pos, Cigar: m.Cigar, EditDist: m.EditDist,
		},
	}
}

func reverseQual(q []byte) []byte {
	out := make([]byte, len(q))
	for i, c := range q {
		out[len(q)-1-i] = c
	}
	return out
}
