package pipeline

import (
	"context"

	"casa/internal/batch"
	"casa/internal/dna"
	"casa/internal/engine"
	"casa/internal/pairing"
	"casa/internal/refidx"
	"casa/internal/sam"
	"casa/internal/seedex"
	"casa/internal/seqio"
	"casa/internal/smem"
)

// HitFunc returns up to maxHits reference positions of the SMEM m of
// strand. A casa accelerator's HitPositions has this shape, as does any
// engine.Positioner's.
type HitFunc func(strand dna.Sequence, m smem.Match, maxHits int) []int32

// Choice is a read's alignment on its better strand.
type Choice struct {
	Al     seedex.Alignment
	Rev    bool // Al aligns the read's reverse complement
	Second int  // the best score of any other alignment, for MAPQ
}

// ChooseStrand extends a read's forward SMEMs and then its reverse
// complement's on sx, each SMEM placed at up to maxHits positions by
// hits, and returns the better alignment. The forward strand wins ties:
// the reverse replaces it only with a strictly higher score. ok is false
// when neither strand extends.
func ChooseStrand(sx *seedex.Machine, read dna.Sequence, rs engine.Seeds, hits HitFunc, maxHits int) (c Choice, ok bool) {
	seeds := func(strand dna.Sequence, smems []smem.Match) []seedex.Seed {
		var out []seedex.Seed
		for _, m := range smems {
			for _, pos := range hits(strand, m, maxHits) {
				out = append(out, seedex.Seed{QStart: m.Start, QEnd: m.End, RefPos: pos})
			}
		}
		return out
	}
	fwd, fok := sx.ExtendRead(read, seeds(read, rs.Forward))
	rc := read.ReverseComplement()
	rev, rok := sx.ExtendRead(rc, seeds(rc, rs.Reverse))
	switch {
	case fok && rok && rev.Score > fwd.Score:
		return Choice{Al: rev, Rev: true, Second: max(fwd.SecondScore, fwd.Score)}, true
	case fok && rok:
		return Choice{Al: fwd, Second: max(fwd.SecondScore, rev.Score)}, true
	case fok:
		return Choice{Al: fwd, Second: fwd.SecondScore}, true
	case rok:
		return Choice{Al: rev, Rev: true, Second: rev.SecondScore}, true
	}
	return Choice{}, false
}

// Proper-pair template length window (FR orientation).
const (
	minInsert = 50
	maxInsert = 2000
)

// extendShardsPerWorker is how many extension shards each worker gets
// per batch, so a slow shard (repeat-heavy reads) does not serialize the
// tail.
const extendShardsPerWorker = 4

// Aligner is casa-align's seed → place → extend → pair path: it turns
// seeded batches into SAM records. Extension runs on the seeding pool's
// worker count, each worker with its own SeedEx machine, and the records
// come back in read order, so they and the modelled SeedEx counters are
// the same at any worker count.
type Aligner struct {
	ctx     context.Context
	eng     engine.Engine
	hits    HitFunc
	strands bool // eng's Seeds carry the reverse strand
	step    int  // reads per unit: 2 in paired mode, mates interleaved
	sxs     []*seedex.Machine
	ix      *refidx.Index
	maxHits int
	pool    batch.Options
	pair    pairing.Options
}

// NewAligner returns an Aligner for eng's seeds over ix: it completes
// them on pool (a second pass over the reverse complements when eng is
// no StrandSeeder), places each SMEM at up to maxHits positions (through
// engine.Positions when eng is no Positioner) and extends with one clone
// of sx per pool worker. In paired mode the records are mates
// interleaved. ctx cancels the second seeding pass.
func NewAligner(ctx context.Context, eng engine.Engine, ix *refidx.Index, sx *seedex.Machine,
	maxHits int, pool batch.Options, paired bool) *Aligner {
	_, strands := eng.(engine.StrandSeeder)
	flat := ix.Flat()
	hits := func(strand dna.Sequence, m smem.Match, max int) []int32 {
		return engine.Positions(eng, flat, strand, m, max)
	}
	if pos, ok := eng.(engine.Positioner); ok {
		hits = pos.HitPositions
	}
	a := &Aligner{
		ctx: ctx, eng: eng, hits: hits, strands: strands, step: 1,
		ix: ix, maxHits: maxHits, pool: pool, pair: pairing.DefaultOptions(),
	}
	a.pair.MinInsert, a.pair.MaxInsert = minInsert, maxInsert
	if paired {
		a.step = 2
	}
	a.sxs = make([]*seedex.Machine, pool.WorkerCount())
	for w := range a.sxs {
		a.sxs[w] = sx.Clone()
	}
	return a
}

// Stats returns the extension counters summed over the worker machines.
func (a *Aligner) Stats() seedex.Stats {
	var s seedex.Stats
	for _, sx := range a.sxs {
		s.Add(sx.Stats)
	}
	return s
}

// Align turns one seeded batch into its SAM records, one per read in
// read order; recs are the batch's input records beside b's seeds. On
// cancellation b is the seeded prefix, and only its whole pairs are
// aligned.
func (a *Aligner) Align(b batch.Batch, recs []seqio.Record) []sam.Record {
	seeds := a.strandSeeds(b)
	step := a.step
	out := make([]sam.Record, len(seeds)/step*step)
	a.extend(len(out), b.Base, func(sx *seedex.Machine, lo, hi int) {
		for k := lo; k < hi; k += step {
			if step == 1 {
				out[k] = recordSingle(recs[k], a.place(sx, recs[k].Seq, seeds[k]))
				continue
			}
			r1, r2 := recs[k], recs[k+1]
			p1, p2 := a.rescuePair(r1, r2, a.place(sx, r1.Seq, seeds[k]), a.place(sx, r2.Seq, seeds[k+1]))
			out[k], out[k+1] = a.recordPair(r1, r2, p1, p2)
		}
	})
	return out
}

// strandSeeds completes one seeded batch's seeds. StrandSeeders (casa,
// cpu, ert and genax) resolve both strands in the stream; other engines
// seed the reverse complements in a second pass (outside the progress and
// trace accounting, which counts each read once), and only reads seeded
// on both strands are returned.
func (a *Aligner) strandSeeds(b batch.Batch) []engine.Seeds {
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

// extend runs one seeded batch's extension on the pool: n reads split
// into shards of a multiple of a.step reads (so mates stay together),
// fn(sx, lo, hi) on each with the worker's own SeedEx machine. Each
// shard writes only its own reads' output slots, so no locking is
// needed. The shards show in -walltrace on the "seedex" track, named by
// global read range (base is the batch's first read) like the seeding
// shards.
func (a *Aligner) extend(n, base int, fn func(sx *seedex.Machine, lo, hi int)) {
	workers, step := len(a.sxs), a.step
	units := (n + step - 1) / step
	grain := step * max(1, (units+extendShardsPerWorker*workers-1)/(extendShardsPerWorker*workers))
	opt := batch.Options{Workers: workers, Grain: grain, Wall: a.pool.Wall, Engine: seedex.Engine, ReadBase: base}
	batch.Run(n, opt, func(w, lo, hi int) struct{} {
		fn(a.sxs[w], lo, hi)
		return struct{}{}
	})
}

// placement is one read's alignment resolved to a chromosome.
type placement struct {
	ok     bool
	chrom  refidx.Chromosome
	local  int
	rev    bool
	al     seedex.Alignment
	second int
}

// place chooses one read's strand on sx and resolves the winner to a
// chromosome. It reads only immutable Aligner state, so workers call it
// concurrently, each with its own machine.
func (a *Aligner) place(sx *seedex.Machine, read dna.Sequence, rs engine.Seeds) placement {
	c, ok := ChooseStrand(sx, read, rs, a.hits, a.maxHits)
	if !ok {
		return placement{}
	}
	chrom, local, ok := a.ix.ResolveSpan(c.Al.RefStart, c.Al.Cigar.RefLen())
	if !ok {
		return placement{} // crosses a chromosome spacer: not a real locus
	}
	return placement{ok: true, chrom: chrom, local: local, rev: c.Rev, al: c.Al, second: c.Second}
}

// recordSingle builds the SAM record for a single-end read.
func recordSingle(rec seqio.Record, p placement) sam.Record {
	if !p.ok {
		return sam.Unmapped(rec.Name, rec.Seq, rec.Qual)
	}
	return baseRecord(rec, p, 0)
}

// baseRecord fills the mapped fields shared by single and paired records.
func baseRecord(rec seqio.Record, p placement, extraFlags int) sam.Record {
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
func (a *Aligner) recordPair(rec1, rec2 seqio.Record, p1, p2 placement) (sam.Record, sam.Record) {
	build := func(rec seqio.Record, p placement, mateFlag int, mate placement) sam.Record {
		var out sam.Record
		if p.ok {
			out = baseRecord(rec, p, sam.FlagPaired|mateFlag)
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

	if !p1.ok || !p2.ok || p1.chrom.Name != p2.chrom.Name {
		return rec1Out, rec2Out
	}
	if proper, tlen := pairing.Proper(toMate(p1), toMate(p2), a.pair); proper {
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
func (a *Aligner) rescuePair(rec1, rec2 seqio.Record, p1, p2 placement) (placement, placement) {
	switch {
	case p1.ok && !p2.ok:
		if m, ok := pairing.Rescue(a.ix.Flat(), rec2.Seq, toMate(p1), a.pair); ok {
			p2 = a.fromMate(m)
		}
	case p2.ok && !p1.ok:
		if m, ok := pairing.Rescue(a.ix.Flat(), rec1.Seq, toMate(p2), a.pair); ok {
			p1 = a.fromMate(m)
		}
	}
	return p1, p2
}

// fromMate converts a rescued mate back into a placement (resolving the
// chromosome); rescues landing on a spacer are dropped.
func (a *Aligner) fromMate(m pairing.Mate) placement {
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
