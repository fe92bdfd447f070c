// Package pairing implements paired-end resolution on top of seeding and
// extension: proper-pair classification (FR orientation within an insert
// window) and mate rescue — when one mate aligns confidently and the
// other does not, the missing mate is searched directly in the window the
// fragment length implies, with a banded fitting alignment. Mate rescue
// is what lets short-read aligners place reads whose own seeds were
// destroyed by errors or repeats.
package pairing

import (
	"fmt"
	"sync"

	"casa/internal/align"
	"casa/internal/dna"
)

// Options configures pair resolution.
type Options struct {
	MinInsert int // smallest proper template length
	MaxInsert int // largest proper template length
	Band      int // banded-fit half-width for rescue
	Scoring   align.Scoring
	// MinRescueScore is the smallest acceptable rescue alignment score,
	// as a fraction (percent) of the mate length; lower-scoring rescues
	// are rejected as spurious.
	MinRescuePercent int
}

// DefaultOptions matches common Illumina libraries.
func DefaultOptions() Options {
	return Options{
		MinInsert:        50,
		MaxInsert:        2000,
		Band:             16,
		Scoring:          align.BWAMEM2(),
		MinRescuePercent: 50,
	}
}

// Validate checks the options.
func (o Options) Validate() error {
	switch {
	case o.MinInsert <= 0 || o.MaxInsert <= o.MinInsert:
		return fmt.Errorf("pairing: invalid insert window [%d, %d]", o.MinInsert, o.MaxInsert)
	case o.Band <= 0:
		return fmt.Errorf("pairing: band must be positive")
	case o.MinRescuePercent < 0 || o.MinRescuePercent > 100:
		return fmt.Errorf("pairing: MinRescuePercent out of range")
	default:
		return o.Scoring.Validate()
	}
}

// Mate is one end's placement (flat reference coordinates).
type Mate struct {
	Mapped   bool
	Pos      int  // leftmost reference base
	RefLen   int  // reference bases consumed
	Reverse  bool // aligned to the reverse strand
	Score    int
	EditDist int
	Cigar    align.Cigar
}

// Proper reports whether two mates form a proper pair (both mapped, FR
// orientation, template length within the window) and returns the
// template length.
func Proper(a, b Mate, opt Options) (bool, int) {
	if !a.Mapped || !b.Mapped || a.Reverse == b.Reverse {
		return false, 0
	}
	fwd, rev := a, b
	if a.Reverse {
		fwd, rev = b, a
	}
	if fwd.Pos > rev.Pos {
		return false, 0
	}
	tlen := rev.Pos + rev.RefLen - fwd.Pos
	if tlen < opt.MinInsert || tlen > opt.MaxInsert {
		return false, 0
	}
	return true, tlen
}

// Rescue attempts to place mate (given as sequenced, i.e. the FASTQ
// record) using its partner's confident placement: the fragment geometry
// implies a window on the opposite strand, which is searched with a
// banded fit (reverse-complementing the mate when the expected
// orientation is reverse). Returns the rescued mate (Reverse set to the
// expected orientation) and ok=false when no acceptable alignment exists
// in the window.
func Rescue(ref dna.Sequence, mateSeq dna.Sequence, partner Mate, opt Options) (Mate, bool) {
	if err := opt.Validate(); err != nil || !partner.Mapped || len(mateSeq) == 0 {
		return Mate{}, false
	}
	// FR geometry: the rescued mate sits downstream of a forward partner
	// (and is reverse), or upstream of a reverse partner (and is forward).
	var lo, hi int
	var rev bool
	if !partner.Reverse {
		lo = partner.Pos + opt.MinInsert - len(mateSeq)
		hi = partner.Pos + opt.MaxInsert
		rev = true
	} else {
		hi = partner.Pos + partner.RefLen - opt.MinInsert + len(mateSeq)
		lo = partner.Pos + partner.RefLen - opt.MaxInsert
		rev = false
	}
	lo = max(lo, 0)
	hi = min(hi, len(ref))
	if hi-lo < len(mateSeq) {
		return Mate{}, false
	}
	query := mateSeq
	if rev {
		query = mateSeq.ReverseComplement()
	}
	f := fitters.Get().(*align.Fitter)
	res, ok := f.Fit(query, ref[lo:hi], windowBand(hi-lo, len(query), opt.Band), opt.Scoring)
	fitters.Put(f)
	if !ok {
		return Mate{}, false
	}
	if res.Score*100 < len(query)*opt.Scoring.Match*opt.MinRescuePercent {
		return Mate{}, false
	}
	return Mate{
		Mapped:   true,
		Pos:      lo + res.RefLo,
		RefLen:   res.Cigar.RefLen(),
		Reverse:  rev,
		Score:    res.Score,
		EditDist: editDistance(query, ref[lo+res.RefLo:lo+res.RefHi]),
		Cigar:    res.Cigar,
	}, true
}

// fitters holds rescue's DP scratch across calls: a fit over the insert
// window needs megabytes of it, and Fit returns BandedFit's Result with
// only the CIGAR newly allocated. Rescue runs on concurrent workers, so
// each call takes a Fitter of its own.
var fitters = sync.Pool{New: func() any { return new(align.Fitter) }}

// windowBand widens the band to cover the full placement freedom of the
// query within the window.
func windowBand(window, query, minBand int) int {
	b := window - query + minBand
	if b < minBand {
		b = minBand
	}
	return b
}

func editDistance(a, b dna.Sequence) int { return align.EditDistance(a, b) }
