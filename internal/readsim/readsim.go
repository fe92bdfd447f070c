// Package readsim generates synthetic reference genomes and simulated
// sequencing reads. It substitutes for the paper's evaluation inputs
// (GRCh38/GRCm39 assemblies, the ERR194147 Illumina run, and DWGSIM-
// simulated mouse reads, §6), which are not shippable here.
//
// The substitution preserves the statistics CASA's evaluation depends on:
//
//   - sharply declining k-mer hit rates as k grows (Fig 5), produced by a
//     random base sequence plus mammalian-style repeat families;
//   - multi-hit seeds from interspersed (Alu-like) and tandem repeats;
//   - a tunable exact-match read fraction (~80% for ERR194147 per §2.2),
//     produced by per-base substitution/indel error rates.
package readsim

import (
	"fmt"
	"math/rand"

	"casa/internal/dna"
	"casa/internal/seqio"
)

// GenomeConfig controls synthetic reference generation.
type GenomeConfig struct {
	Length int   // total bases
	Seed   int64 // RNG seed; same seed -> same genome

	// Repeat structure. Mammalian genomes are ~50% repetitive; the defaults
	// approximate that with interspersed elements and tandem arrays.
	InterspersedFamilies int     // number of distinct repeat families (0 = default)
	InterspersedUnitLen  int     // element length, e.g. 300 for Alu-like
	InterspersedFraction float64 // fraction of the genome covered by them
	InterspersedDiverge  float64 // per-base divergence between copies
	TandemFraction       float64 // fraction covered by tandem arrays
	TandemUnitLen        int     // tandem repeat unit length
	SatelliteFraction    float64 // fraction covered by one high-copy satellite
	SatelliteUnitLen     int     // satellite unit length (alpha satellite: 171)
}

// DefaultGenome returns a config producing a genome with mammalian-like
// repeat content at the given length.
func DefaultGenome(length int, seed int64) GenomeConfig {
	return GenomeConfig{
		Length:               length,
		Seed:                 seed,
		InterspersedFamilies: 64,
		InterspersedUnitLen:  300,
		InterspersedFraction: 0.35,
		// Genome-wide interspersed elements (Alu/LINE-like) are split into
		// many subfamilies and are old and diverged (~18% per base), so
		// most 19-mers stay unique to one copy while 12-mers still
		// cross-hit — the Fig 5 effect.
		InterspersedDiverge: 0.18,
		TandemFraction:      0.05,
		TandemUnitLen:       24,
		SatelliteFraction:   0.04,
		SatelliteUnitLen:    171,
	}
}

// GenerateReference builds a synthetic genome per cfg.
func GenerateReference(cfg GenomeConfig) dna.Sequence {
	if cfg.Length <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	if cfg.InterspersedFamilies == 0 && cfg.InterspersedFraction > 0 {
		cfg.InterspersedFamilies = 8
	}
	if cfg.InterspersedUnitLen == 0 {
		cfg.InterspersedUnitLen = 300
	}
	if cfg.TandemUnitLen == 0 {
		cfg.TandemUnitLen = 24
	}
	if cfg.SatelliteUnitLen == 0 {
		cfg.SatelliteUnitLen = 171
	}

	// Repeat family consensus sequences. The satellite is one genome-wide
	// unit (like alpha satellite): its long, lightly diverged tandem
	// arrays give the k-mer frequency distribution the heavy tail real
	// genomes have — a few k-mers with very many hits — which is what
	// drives the intersection load of seed & position table designs.
	families := make([]dna.Sequence, cfg.InterspersedFamilies)
	for i := range families {
		families[i] = randomSeq(rng, cfg.InterspersedUnitLen)
	}
	satellite := randomSeq(rng, cfg.SatelliteUnitLen)

	// Block types are drawn weighted by their remaining *block* quota
	// (base quota over mean block length) so the configured fractions are
	// genome coverage fractions AND the coverage stays uniform along the
	// genome — a satellite array is ~17x longer than an Alu copy, so
	// weighting by remaining bases would exhaust the satellite quota in
	// the first few percent of the sequence.
	genome := make(dna.Sequence, 0, cfg.Length)
	const (
		meanSatCopies = 29 // 10 + Intn(40), on average
		meanTanCopies = 6  // 3 + Intn(8), on average
		meanUniqLen   = 400
	)
	targetSat := int(cfg.SatelliteFraction * float64(cfg.Length))
	targetInt := int(cfg.InterspersedFraction * float64(cfg.Length))
	targetTan := int(cfg.TandemFraction * float64(cfg.Length))
	emitSat, emitInt, emitTan := 0, 0, 0
	for len(genome) < cfg.Length {
		defSat := max(targetSat-emitSat, 0) / (meanSatCopies * cfg.SatelliteUnitLen)
		defInt := max(targetInt-emitInt, 0) / cfg.InterspersedUnitLen
		defTan := max(targetTan-emitTan, 0) / (meanTanCopies * cfg.TandemUnitLen)
		used := emitSat + emitInt + emitTan
		defUniq := max(cfg.Length-len(genome)-(targetSat+targetInt+targetTan-used), 0) / meanUniqLen
		r := rng.Intn(defSat + defInt + defTan + defUniq + 1)
		switch {
		case r < defSat:
			// A satellite array: tens of near-identical copies.
			before := len(genome)
			copies := 10 + rng.Intn(40)
			for c := 0; c < copies; c++ {
				for _, b := range satellite {
					if rng.Float64() < 0.01 {
						b = dna.Base(rng.Intn(4))
					}
					genome = append(genome, b)
				}
			}
			emitSat += len(genome) - before
		case r < defSat+defInt && len(families) > 0:
			// Insert a diverged copy of a repeat family element.
			fam := families[rng.Intn(len(families))]
			copySeq := fam.Clone()
			for i := range copySeq {
				if rng.Float64() < cfg.InterspersedDiverge {
					copySeq[i] = dna.Base(rng.Intn(4))
				}
			}
			genome = append(genome, copySeq...)
			emitInt += len(copySeq)
		case r < defSat+defInt+defTan:
			// Insert a tandem array of 3-10 copies.
			unit := randomSeq(rng, cfg.TandemUnitLen)
			copies := 3 + rng.Intn(8)
			for c := 0; c < copies; c++ {
				genome = append(genome, unit...)
			}
			emitTan += copies * len(unit)
		default:
			// Unique sequence tract.
			genome = append(genome, randomSeq(rng, 200+rng.Intn(400))...)
		}
	}
	return genome[:cfg.Length]
}

// ReadProfile controls the read simulator, DWGSIM-style.
type ReadProfile struct {
	Length    int     // read length in bp (101 in the paper)
	Count     int     // number of reads to generate
	Seed      int64   // RNG seed
	MutRate   float64 // per-base haplotype SNP rate (sample vs reference)
	ErrRate   float64 // per-base sequencing substitution error rate
	IndelRate float64 // per-read probability of a 1-3 bp indel
	RevComp   bool    // also sample from the reverse strand
}

// DefaultProfile matches the paper's workload shape: 101 bp reads with an
// error profile giving roughly 80% exact-match reads (§2.2's observation
// about ERR194147 on GRCh38).
func DefaultProfile(count int, seed int64) ReadProfile {
	return ReadProfile{
		Length:    101,
		Count:     count,
		Seed:      seed,
		MutRate:   0.001,
		ErrRate:   0.001,
		IndelRate: 0.0002,
		RevComp:   true,
	}
}

// Read is one simulated read with its ground truth.
type Read struct {
	Seq     dna.Sequence
	Qual    []byte
	Origin  int  // 0-based reference position of the first sampled base
	Reverse bool // sampled from the reverse strand
	Errors  int  // number of injected differences vs the reference window
	Name    string
}

// Exact reports whether the read matches the reference window exactly.
func (r Read) Exact() bool { return r.Errors == 0 }

// Simulate samples reads from ref per profile. Deterministic for a given
// profile (including Seed).
func Simulate(ref dna.Sequence, p ReadProfile) []Read {
	if p.Length <= 0 || p.Length > len(ref) {
		return nil
	}
	rng := rand.New(rand.NewSource(p.Seed))
	reads := make([]Read, 0, p.Count)
	for i := 0; i < p.Count; i++ {
		origin := rng.Intn(len(ref) - p.Length + 1)
		window := ref[origin : origin+p.Length].Clone()
		errs := 0

		// Haplotype SNPs and sequencing substitution errors.
		for j := range window {
			if rng.Float64() < p.MutRate+p.ErrRate {
				old := window[j]
				window[j] = dna.Base((int(old) + 1 + rng.Intn(3)) & 3)
				if window[j] != old {
					errs++
				}
			}
		}
		// Occasional small indel: delete or duplicate 1-3 bases, then
		// re-trim/pad from the reference so the length stays fixed.
		if rng.Float64() < p.IndelRate && p.Length > 10 {
			pos := 1 + rng.Intn(p.Length-5)
			n := 1 + rng.Intn(3)
			if rng.Intn(2) == 0 && pos+n < len(window) {
				window = append(window[:pos], window[pos+n:]...)
				window = append(window, randomSeq(rng, n)...)
			} else {
				ins := randomSeq(rng, n)
				window = append(window[:pos], append(ins, window[pos:len(window)-n]...)...)
			}
			errs += n
		}

		rev := p.RevComp && rng.Intn(2) == 1
		if rev {
			window = window.ReverseComplement()
		}
		qual := make([]byte, p.Length)
		for j := range qual {
			qual[j] = byte('!' + 35 + rng.Intn(7)) // Q35-Q41, Illumina-like
		}
		reads = append(reads, Read{
			Seq:     window,
			Qual:    qual,
			Origin:  origin,
			Reverse: rev,
			Errors:  errs,
			Name:    fmt.Sprintf("sim_%d_pos%d_rev%t_err%d", i, origin, rev, errs),
		})
	}
	return reads
}

// PairProfile controls paired-end simulation: two reads from the ends of
// one sequenced fragment, facing each other (Illumina FR orientation).
type PairProfile struct {
	Read       ReadProfile // per-mate length/error settings (RevComp ignored)
	InsertMean int         // mean fragment length
	InsertSD   int         // fragment length standard deviation
}

// DefaultPairProfile matches common Illumina libraries: 101 bp mates,
// 350 +- 50 bp fragments.
func DefaultPairProfile(count int, seed int64) PairProfile {
	p := DefaultProfile(count, seed)
	p.RevComp = false
	return PairProfile{Read: p, InsertMean: 350, InsertSD: 50}
}

// ReadPair is one simulated fragment's two mates. R1 is the fragment's
// left end read forward; R2 the right end read reverse-complemented
// (their Origin fields give each mate's leftmost reference base).
type ReadPair struct {
	R1, R2 Read
	Insert int // fragment length
}

// SimulatePairs samples read pairs from ref. Deterministic per profile.
func SimulatePairs(ref dna.Sequence, p PairProfile) []ReadPair {
	L := p.Read.Length
	if L <= 0 || p.InsertMean < L || p.InsertMean > len(ref) {
		return nil
	}
	rng := rand.New(rand.NewSource(p.Read.Seed))
	pairs := make([]ReadPair, 0, p.Read.Count)
	for i := 0; i < p.Read.Count; i++ {
		insert := p.InsertMean
		if p.InsertSD > 0 {
			insert += int(rng.NormFloat64() * float64(p.InsertSD))
		}
		if insert < L {
			insert = L
		}
		if insert > len(ref) {
			insert = len(ref)
		}
		frag := rng.Intn(len(ref) - insert + 1)

		mate := func(origin int, reverse bool, idx int) Read {
			window := ref[origin : origin+L].Clone()
			errs := 0
			for j := range window {
				if rng.Float64() < p.Read.MutRate+p.Read.ErrRate {
					old := window[j]
					window[j] = dna.Base((int(old) + 1 + rng.Intn(3)) & 3)
					if window[j] != old {
						errs++
					}
				}
			}
			seq := window
			if reverse {
				seq = window.ReverseComplement()
			}
			qual := make([]byte, L)
			for j := range qual {
				qual[j] = byte('!' + 35 + rng.Intn(7))
			}
			return Read{
				Seq: seq, Qual: qual, Origin: origin, Reverse: reverse, Errors: errs,
				Name: fmt.Sprintf("pair_%d/%d_pos%d_rev%t_err%d", i, idx, origin, reverse, errs),
			}
		}
		pairs = append(pairs, ReadPair{
			R1:     mate(frag, false, 1),
			R2:     mate(frag+insert-L, true, 2),
			Insert: insert,
		})
	}
	return pairs
}

// PairRecords converts pairs into two parallel FASTQ record sets.
func PairRecords(pairs []ReadPair) (r1, r2 []seqio.Record) {
	for _, p := range pairs {
		r1 = append(r1, seqio.Record{Name: p.R1.Name, Seq: p.R1.Seq, Qual: p.R1.Qual})
		r2 = append(r2, seqio.Record{Name: p.R2.Name, Seq: p.R2.Seq, Qual: p.R2.Qual})
	}
	return r1, r2
}

// ExactFraction returns the fraction of reads with zero injected errors.
func ExactFraction(reads []Read) float64 {
	if len(reads) == 0 {
		return 0
	}
	n := 0
	for _, r := range reads {
		if r.Exact() {
			n++
		}
	}
	return float64(n) / float64(len(reads))
}

// Records converts simulated reads to seqio records (e.g. to write FASTQ).
func Records(reads []Read) []seqio.Record {
	recs := make([]seqio.Record, len(reads))
	for i, r := range reads {
		recs[i] = seqio.Record{Name: r.Name, Seq: r.Seq, Qual: r.Qual}
	}
	return recs
}

// Sequences extracts just the base sequences.
func Sequences(reads []Read) []dna.Sequence {
	out := make([]dna.Sequence, len(reads))
	for i, r := range reads {
		out[i] = r.Seq
	}
	return out
}

func randomSeq(rng *rand.Rand, n int) dna.Sequence {
	s := make(dna.Sequence, n)
	for i := range s {
		s[i] = dna.Base(rng.Intn(4))
	}
	return s
}
