package pipeline

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"

	"casa/internal/batch"
	"casa/internal/dna"
	"casa/internal/engine"
	"casa/internal/readsim"
	"casa/internal/refidx"
	"casa/internal/sam"
	"casa/internal/seedex"
	"casa/internal/seqio"
	_ "casa/internal/shard" // registers the sharded:<name> composites
	"casa/internal/smem"
)

// alignInput is a casa-gen-style fixture: a two-chromosome reference
// index, a single-end read set and a read-pair set with the mates
// interleaved (record 2i is pair i's first mate).
type alignInput struct {
	ix     *refidx.Index
	single []seqio.Record
	pairs  []seqio.Record
}

// newAlignInput builds a fixture of two chromosomes of chromLen bases
// and reads single-end reads and as many pairs. Every eighth pair's
// second mate carries a substitution every 16 bases: it has no 19-base
// SMEM, so it places only through mate rescue.
func newAlignInput(t *testing.T, chromLen, reads int) alignInput {
	t.Helper()
	var recs []seqio.Record
	var all dna.Sequence
	for c := 0; c < 2; c++ {
		g := readsim.GenerateReference(readsim.DefaultGenome(chromLen, int64(3+c)))
		recs = append(recs, seqio.Record{Name: fmt.Sprintf("chr%d", c+1), Seq: g})
		all = append(all, g...)
	}
	ix, err := refidx.Build(recs)
	if err != nil {
		t.Fatal(err)
	}
	profile := readsim.ReadProfile{Length: 101, Count: reads, Seed: 11, MutRate: 0.01, ErrRate: 0.01, RevComp: true}
	in := alignInput{ix: ix, single: readsim.Records(readsim.Simulate(all, profile))}

	profile.RevComp = false
	m1, m2 := readsim.PairRecords(readsim.SimulatePairs(all, readsim.PairProfile{Read: profile, InsertMean: 350, InsertSD: 50}))
	for i := range m1 {
		if i%8 == 0 {
			seq := m2[i].Seq.Clone()
			for j := 7; j < len(seq); j += 16 {
				seq[j] = (seq[j] + 1) % 4
			}
			m2[i].Seq = seq
		}
		in.pairs = append(in.pairs, m1[i], m2[i])
	}
	return in
}

// alignMode is one of a fixture's inputs.
type alignMode struct {
	name   string
	recs   []seqio.Record
	paired bool
}

// modes returns the fixture's single-end and paired inputs.
func (in alignInput) modes() []alignMode {
	return []alignMode{{"single", in.single, false}, {"paired", in.pairs, true}}
}

// alignInProcess aligns recs (mates interleaved when paired) with eng on
// a pool of workers, streamed in batches of 64 reads or pairs as
// casa-align streams them, and returns the SAM, whose @PG names eng.
func alignInProcess(t *testing.T, eng engine.Engine, ix *refidx.Index, workers int, recs []seqio.Record, paired bool) []byte {
	t.Helper()
	sx, err := seedex.New(ix.Flat(), seedex.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var refSeqs []sam.RefSeq
	for _, c := range ix.Chromosomes() {
		refSeqs = append(refSeqs, sam.RefSeq{Name: c.Name, Length: c.Length})
	}
	var out bytes.Buffer
	writer := sam.NewWriter(&out, refSeqs, eng.Name())
	pool := batch.Options{Workers: workers}
	a := NewAligner(context.Background(), eng, ix, sx, 4, pool, paired)
	size := 64
	if paired {
		size *= 2
	}
	lo := 0
	next := func() ([]dna.Sequence, error) {
		if lo == len(recs) {
			return nil, io.EOF
		}
		hi := min(lo+size, len(recs))
		var reads []dna.Sequence
		for _, rec := range recs[lo:hi] {
			reads = append(reads, rec.Seq)
		}
		lo = hi
		return reads, nil
	}
	emit := func(b batch.Batch) error {
		for _, rec := range a.Align(b, recs[b.Base:b.Base+len(b.Reads)]) {
			if err := writer.Write(rec); err != nil {
				return err
			}
		}
		return nil
	}
	if _, _, err := batch.Stream(context.Background(), eng, next, emit, pool); err != nil {
		t.Fatal(err)
	}
	if err := writer.Flush(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// withoutPG drops a SAM's @PG header line, the one line that names the
// engine.
func withoutPG(samOut []byte) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(string(samOut), "\n") {
		if !strings.HasPrefix(line, "@PG\t") {
			b.WriteString(line)
		}
	}
	return b.String()
}

// mapped counts the mapped records of a SAM.
func mapped(t *testing.T, samOut string) int {
	t.Helper()
	n := 0
	for _, line := range strings.Split(samOut, "\n") {
		if line == "" || line[0] == '@' {
			continue
		}
		var flag int
		if _, err := fmt.Sscanf(strings.Split(line, "\t")[1], "%d", &flag); err != nil {
			t.Fatalf("SAM line %q: %v", line, err)
		}
		if flag&sam.FlagUnmapped == 0 {
			n++
		}
	}
	return n
}

// forwardOnly hides an engine's StrandSeeder capability, which forces
// the Aligner's second pool pass over the reverse complements.
type forwardOnly struct{ engine.Engine }

// TestStrandSeedersNeedNoSecondPass pins the reverse strand of the cpu,
// ert and genax engines: taken from their activities, it must give the
// SAM bytes the second pool pass over the reverse complements gives, at
// 1 and 2 workers, single-end and paired.
func TestStrandSeedersNeedNoSecondPass(t *testing.T) {
	in := newAlignInput(t, 40000, 300)
	for _, name := range []string{"cpu", "ert", "genax"} {
		eng, err := engine.New(name, in.ix.Flat(), engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := eng.(engine.StrandSeeder); !ok {
			t.Fatalf("%s is not a StrandSeeder", name)
		}
		for _, mode := range in.modes() {
			want := alignInProcess(t, forwardOnly{eng}, in.ix, 1, mode.recs, mode.paired)
			for _, workers := range []int{1, 2} {
				if got := alignInProcess(t, eng, in.ix, workers, mode.recs, mode.paired); !bytes.Equal(got, want) {
					t.Errorf("%s %s workers=%d: SAM differs from the second-pass run", name, mode.name, workers)
				}
			}
		}
	}
}

// TestExactEnginesGiveSameSAM is the end-to-end form of the claim that
// every exact engine finds the same SMEMs: aligned through each of them,
// the fixture gives the same SAM, up to the @PG line, single-end and
// paired, at 2 workers. The fixture is small because the engines that
// are no Positioner place every SMEM by scanning the reference; brute,
// whose seeding is itself a scan per read, runs on a smaller one still.
func TestExactEnginesGiveSameSAM(t *testing.T) {
	for _, tc := range []struct {
		chromLen, reads int
		engines         []string
	}{
		{20000, 120, []string{"casa", "fmindex", "cpu", "ert", "genax", "sharded:casa", "sharded:fmindex", "sharded:cpu"}},
		{4000, 16, []string{"casa", "brute"}},
	} {
		in := newAlignInput(t, tc.chromLen, tc.reads)
		for _, mode := range in.modes() {
			var want string
			for _, name := range tc.engines {
				eng, err := engine.New(name, in.ix.Flat(), engine.Options{})
				if err != nil {
					t.Fatal(err)
				}
				got := withoutPG(alignInProcess(t, eng, in.ix, 2, mode.recs, mode.paired))
				if want == "" {
					if n := mapped(t, got); n < len(mode.recs)*8/10 {
						t.Fatalf("%d bp %s %s: %d of %d reads mapped, want nearly all", tc.chromLen, name, mode.name, n, len(mode.recs))
					}
					want = got
				} else if got != want {
					t.Errorf("%d bp %s %s: SAM differs from %s's", tc.chromLen, name, mode.name, tc.engines[0])
				}
			}
		}
	}
}

// TestChooseStrandForwardWinsTies pins the strand rule casa-align and
// the Fig 14 model share: a palindromic read aligns equally well on both
// strands and is placed forward, with the reverse score as its second
// best; a read taken from the reverse strand is placed reverse.
func TestChooseStrandForwardWinsTies(t *testing.T) {
	ref := readsim.GenerateReference(readsim.DefaultGenome(4000, 9))
	half := ref[1000:1050].Clone()
	pal := append(half, half.ReverseComplement()...) // its own reverse complement
	ref = append(append(ref[:2000:2000].Clone(), pal...), ref[2000:]...)
	sx, err := seedex.New(ref, seedex.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// hits places each SMEM where the strand occurs in ref.
	hits := func(strand dna.Sequence, m smem.Match, maxHits int) []int32 {
		var out []int32
		for p := 0; p+m.Len() <= len(ref) && len(out) < maxHits; p++ {
			if slices.Equal(ref[p:p+m.Len()], strand[m.Start:m.End+1]) {
				out = append(out, int32(p))
			}
		}
		return out
	}
	whole := func(read dna.Sequence) []smem.Match { return []smem.Match{{Start: 0, End: len(read) - 1, Hits: 1}} }

	c, ok := ChooseStrand(sx, pal, engine.Seeds{Forward: whole(pal), Reverse: whole(pal)}, hits, 4)
	if !ok || c.Rev || c.Al.RefStart != 2000 || c.Second != c.Al.Score {
		t.Errorf("palindrome: %+v, ok=%v; want forward at 2000 with the reverse score as second", c, ok)
	}

	read := ref[3000:3101].ReverseComplement()
	c, ok = ChooseStrand(sx, read, engine.Seeds{Reverse: whole(read)}, hits, 4)
	if !ok || !c.Rev || c.Al.RefStart != 3000 {
		t.Errorf("reverse-strand read: %+v, ok=%v; want reverse at 3000", c, ok)
	}
}
