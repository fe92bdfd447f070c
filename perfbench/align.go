package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"os"
	"strconv"
	"strings"
	"time"

	"casa/internal/batch"
	"casa/internal/dna"
	"casa/internal/engine"
	"casa/internal/pairing"
	"casa/internal/refidx"
	"casa/internal/sam"
	"casa/internal/seedex"
	"casa/internal/seqio"
	"casa/internal/smem"
	"casa/internal/trace"
)

// align-paired runs casa-align at one worker per core: its extension is
// single-threaded, so this is the workload where pool utilization shows.
const (
	alignWorkers = 2
	alignBatch   = 4096 // casa-align's default -batch
	// posTolerance is how far a record's POS may sit from the read's
	// simulated origin and still count as placed there: indels and clipped
	// ends shift the leftmost aligned base.
	posTolerance = 10
	// minPlaced is the share of reads that must land at their origin for
	// the run to count as correct; the rest are repeats and error-dense
	// reads that no seed-and-extend aligner places uniquely.
	minPlaced = 0.95
)

func alignArgs(e env) []string {
	return []string{"-ref", e.in.ref, "-reads", e.in.pairs1, "-reads2", e.in.pairs2,
		"-workers", strconv.Itoa(alignWorkers), "-out", "-"}
}

// alignOnce runs casa-align once. Set-up ends when it logs "run starting":
// the reference is parsed, the casa index built and the SAM header ready.
func alignOnce(ctx context.Context, e env) (cliRun, error) {
	run, err := runCLI(ctx, e.b.align, alignArgs(e), `msg="run starting"`)
	if err == nil && run.markAt < 0 {
		err = fmt.Errorf("casa-align never logged the end of its set-up")
	}
	return run, err
}

// samCheck counts the SAM records and those placed at their simulated
// origin. Origins are offsets into the chromosomes laid end to end, in
// @SQ order.
func samCheck(out []byte) (records, placed int, err error) {
	var names []string
	var starts []int
	next := 0
	for _, line := range strings.Split(string(out), "\n") {
		if line == "" {
			continue
		}
		f := strings.Split(line, "\t")
		if strings.HasPrefix(line, "@SQ") {
			ln, err := strconv.Atoi(strings.TrimPrefix(f[2], "LN:"))
			if err != nil {
				return 0, 0, fmt.Errorf("SAM header %q: %w", line, err)
			}
			names = append(names, strings.TrimPrefix(f[1], "SN:"))
			starts = append(starts, next)
			next += ln
			continue
		}
		if line[0] == '@' {
			continue
		}
		if len(f) < 11 {
			return 0, 0, fmt.Errorf("short SAM record %q", line)
		}
		records++
		flag, err1 := strconv.Atoi(f[1])
		pos, err2 := strconv.Atoi(f[3])
		origin, rev, ok := simOrigin(f[0])
		if err1 != nil || err2 != nil || !ok {
			return 0, 0, fmt.Errorf("bad SAM record %q", line)
		}
		if flag&sam.FlagUnmapped != 0 || (flag&sam.FlagReverse != 0) != rev {
			continue
		}
		c := len(starts) - 1
		for c > 0 && starts[c] > origin {
			c--
		}
		local := origin - starts[c]
		if f[2] == names[c] && pos-1 >= local-posTolerance && pos-1 <= local+posTolerance {
			placed++
		}
	}
	return records, placed, nil
}

func alignRun(ctx context.Context, e env) (outcome, error) {
	var o outcome
	var setups, rates, rss []float64
	var lat [][]float64
	var first [32]byte
	want := 2 * pairCount
	o.correct = true
	start := time.Now()
	for i := 0; i < minRepeats || time.Since(start) < e.seconds; i++ {
		run, err := alignOnce(ctx, e)
		if err != nil {
			return o, err
		}
		sum := sha256.Sum256(run.stdout)
		if i == 0 {
			first = sum
		} else if sum != first {
			return o, fmt.Errorf("casa-align output differs between repetitions of one run")
		}
		records, placed, err := samCheck(run.stdout)
		if err != nil {
			return o, err
		}
		o.t.add(records, false)
		o.t.add(want-records, true)
		frac := float64(placed) / float64(want)
		o.correct = o.correct && frac >= minPlaced
		o.set("correct_frac", frac, "frac")
		setups = append(setups, sec(run.markAt))
		rates = append(rates, float64(records)/sec(run.lastByte-run.markAt))
		rss = append(rss, run.maxRSSMiB)
		var perRead []float64
		lines := bytes.Split(run.stdout, []byte("\n"))
		for j, at := range run.lineAt {
			if len(lines[j]) > 0 && lines[j][0] != '@' {
				perRead = append(perRead, ms(at))
			}
		}
		lat = append(lat, perRead)
	}
	o.set("setup_s", median(setups), "s")
	o.set("reads_per_s", median(rates), "reads/s")
	o.set("mem_mib", median(rss), "MiB")
	o.set("ok_frac", o.t.okFrac(), "frac")
	return o, setLatency(&o, lat)
}

// aligner replays casa-align's per-read loop through the same public calls
// (it lives in package main there), timing each layer.
type aligner struct {
	eng    engine.Engine
	pos    engine.Positioner
	sx     *seedex.Machine
	ix     *refidx.Index
	writer *sam.Writer
	s      spans

	extended, placedReads, seeds int
	rescueTried, rescued         int
}

const maxHits = 4 // casa-align's default -max-hits

func alignTraced(ctx context.Context, e env) (outcome, error) {
	var o outcome
	ref, err := alignOnce(ctx, e)
	if err != nil {
		return o, err
	}

	s := spans{}
	t0 := time.Now()
	t := t0
	recs, err := readFasta(e.in.ref)
	var r1, r2 []seqio.Record
	if err == nil {
		r1, err = readFastqRecords(e.in.pairs1)
	}
	if err == nil {
		r2, err = readFastqRecords(e.in.pairs2)
	}
	s.since("seqio", t)
	if err != nil {
		return o, err
	}
	a := &aligner{s: s}
	t = time.Now()
	a.ix, err = refidx.Build(recs)
	s.since("refidx", t)
	if err != nil {
		return o, err
	}
	t = time.Now()
	a.eng, err = engine.New("casa", a.ix.Flat(), engine.Options{Partition: 4 << 20})
	if err == nil {
		a.sx, err = seedex.New(a.ix.Flat(), seedex.DefaultConfig())
	}
	s.since("core.build", t)
	if err != nil {
		return o, err
	}
	var ok bool
	if a.pos, ok = a.eng.(engine.Positioner); !ok {
		return o, fmt.Errorf("casa is not a Positioner")
	}
	var refSeqs []sam.RefSeq
	for _, c := range a.ix.Chromosomes() {
		refSeqs = append(refSeqs, sam.RefSeq{Name: c.Name, Length: c.Length})
	}
	out := &countingHash{h: sha256.New()}
	a.writer = sam.NewWriter(out, refSeqs, "casa-align")
	wall := trace.NewWall(0)
	pool := batch.Options{Workers: alignWorkers, Wall: wall}
	calls := 0
	for lo := 0; lo < len(r1); lo += alignBatch {
		hi := min(lo+alignBatch, len(r1))
		var reads []dna.Sequence
		for i := lo; i < hi; i++ {
			reads = append(reads, r1[i].Seq, r2[i].Seq)
		}
		pool.ReadBase = 2 * lo
		t = time.Now()
		seeds := a.pos.ReadSeeds(batch.SeedEngine(a.eng, reads, pool))
		s.since("batch", t)
		calls++
		for i := lo; i < hi; i++ {
			p1 := a.place(r1[i].Seq, seeds[2*(i-lo)])
			p2 := a.place(r2[i].Seq, seeds[2*(i-lo)+1])
			p1, p2 = a.rescuePair(r1[i], r2[i], p1, p2)
			rec1, rec2 := a.recordPair(r1[i], r2[i], p1, p2)
			t = time.Now()
			err1, err2 := a.writer.Write(rec1), a.writer.Write(rec2)
			s.since("sam", t)
			if err := errors.Join(err1, err2); err != nil {
				return o, err
			}
		}
	}
	t = time.Now()
	err = a.writer.Flush()
	s.since("sam", t)
	if err != nil {
		return o, err
	}
	replay := time.Since(t0)
	refSum := sha256.Sum256(ref.stdout)
	if !bytes.Equal(out.h.Sum(nil), refSum[:]) {
		return o, fmt.Errorf("the traced replay's SAM differs from casa-align's")
	}
	records, placed, err := samCheck(ref.stdout)
	if err != nil {
		return o, err
	}
	o.correct = float64(placed)/float64(2*pairCount) >= minPlaced
	o.t.add(records, false)

	busy, err := poolStats(&o, wall, alignWorkers, calls, s["batch"])
	if err != nil {
		return o, err
	}
	o.set("core.seed_s", sec(busy), "s")
	o.set("core.us_per_read", float64(busy)/float64(time.Microsecond)/float64(2*len(r1)), "us")
	o.set("core.build_s", sec(s["core.build"]), "s")
	o.set("refidx.build_s", sec(s["refidx"]), "s")
	o.set("seqio.parse_s", sec(s["seqio"]), "s")
	o.set("seqio.mib_per_s", (fileMiB(e.in.ref)+fileMiB(e.in.pairs1)+fileMiB(e.in.pairs2))/sec(s["seqio"]), "MiB/s")
	o.set("engine.positions_s", sec(s["positions"]), "s")
	o.set("seedex.extend_s", sec(s["seedex"]), "s")
	o.set("seedex.seeds_per_read", float64(a.seeds)/float64(a.extended), "count")
	o.set("seedex.place_frac", float64(a.placedReads)/float64(a.extended), "frac")
	o.set("pairing.rescue_s", sec(s["pairing"]), "s")
	o.set("pairing.rescue_frac", float64(a.rescued)/float64(max(1, a.rescueTried)), "frac")
	o.set("sam.write_s", sec(s["sam"]), "s")
	o.set("sam.mib", float64(out.n)/(1<<20), "MiB")
	o.set("trace.overhead_frac", sec(replay)/sec(ref.exited)-1, "frac")
	return o, setUnattributed(&o, s, replay)
}

// countingHash hashes and counts what the SAM writer emits.
type countingHash struct {
	h hash.Hash
	n int64
}

func (c *countingHash) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return c.h.Write(p)
}

func readFasta(path string) ([]seqio.Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return seqio.ReadFasta(f)
}

func readFastqRecords(path string) ([]seqio.Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return seqio.ReadFastq(f)
}

// Proper-pair template length window, as in casa-align.
const (
	minInsert = 50
	maxInsert = 2000
)

type placement struct {
	ok     bool
	chrom  refidx.Chromosome
	local  int
	rev    bool
	al     seedex.Alignment
	second int
}

func (a *aligner) place(read dna.Sequence, rs engine.Seeds) placement {
	toSeeds := func(strand dna.Sequence, smems []smem.Match) []seedex.Seed {
		var seeds []seedex.Seed
		for _, m := range smems {
			t := time.Now()
			hits := a.pos.HitPositions(strand, m, maxHits)
			a.s.since("positions", t)
			for _, pos := range hits {
				seeds = append(seeds, seedex.Seed{QStart: m.Start, QEnd: m.End, RefPos: pos})
			}
		}
		return seeds
	}
	extend := func(strand dna.Sequence, seeds []seedex.Seed) (al seedex.Alignment, ok bool) {
		a.seeds += len(seeds)
		t := time.Now()
		al, ok = a.sx.ExtendRead(strand, seeds)
		a.s.since("seedex", t)
		return al, ok
	}
	type cand struct {
		al  seedex.Alignment
		rev bool
	}
	a.extended++
	var cands []cand
	if al, ok := extend(read, toSeeds(read, rs.Forward)); ok {
		cands = append(cands, cand{al, false})
	}
	rc := read.ReverseComplement()
	if al, ok := extend(rc, toSeeds(rc, rs.Reverse)); ok {
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
		return placement{}
	}
	a.placedReads++
	return placement{ok: true, chrom: chrom, local: local, rev: best.rev, al: best.al, second: second}
}

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
	t := time.Now()
	proper, tlen := properPair(p1, p2)
	a.s.since("pairing", t)
	if proper {
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

func properPair(p1, p2 placement) (bool, int) {
	if !p1.ok || !p2.ok || p1.chrom.Name != p2.chrom.Name {
		return false, 0
	}
	return pairing.Proper(toMate(p1), toMate(p2), pairOptions())
}

func pairOptions() pairing.Options {
	opt := pairing.DefaultOptions()
	opt.MinInsert, opt.MaxInsert = minInsert, maxInsert
	return opt
}

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

func (a *aligner) rescuePair(rec1, rec2 seqio.Record, p1, p2 placement) (placement, placement) {
	rescue := func(seq dna.Sequence, partner placement) (placement, bool) {
		a.rescueTried++
		t := time.Now()
		m, ok := pairing.Rescue(a.ix.Flat(), seq, toMate(partner), pairOptions())
		a.s.since("pairing", t)
		if !ok {
			return placement{}, false
		}
		a.rescued++
		return a.fromMate(m), true
	}
	switch {
	case p1.ok && !p2.ok:
		if p, ok := rescue(rec2.Seq, p1); ok {
			p2 = p
		}
	case p2.ok && !p1.ok:
		if p, ok := rescue(rec1.Seq, p2); ok {
			p1 = p
		}
	}
	return p1, p2
}

func (a *aligner) fromMate(m pairing.Mate) placement {
	chrom, local, ok := a.ix.ResolveSpan(m.Pos, m.RefLen)
	if !ok {
		return placement{}
	}
	return placement{
		ok: true, chrom: chrom, local: local, rev: m.Reverse,
		al: seedex.Alignment{Score: m.Score, RefStart: m.Pos, Cigar: m.Cigar, EditDist: m.EditDist},
	}
}

func reverseQual(q []byte) []byte {
	out := make([]byte, len(q))
	for i, c := range q {
		out[len(q)-1-i] = c
	}
	return out
}
