// Package seedex models the SeedEx seed-extension accelerator (Fujiki et
// al., MICRO 2020) that CASA pairs with for end-to-end alignment (§5:
// "CASA then forwards the results to 5 SeedEx machines ... Each SeedEx
// machine contains 12 BSW cores and 4 edit machines"). Extension is real:
// banded Smith-Waterman around each seed's diagonal picks the best hit,
// and Myers edit machines verify the winner. Timing follows the systolic
// BSW structure: one anti-diagonal per cycle.
package seedex

import (
	"fmt"
	"sort"

	"casa/internal/align"
	"casa/internal/dna"
)

// Config sets the SeedEx machine array.
type Config struct {
	Machines     int // SeedEx machines (5)
	BSWCores     int // banded Smith-Waterman cores per machine (12)
	EditMachines int // edit machines per machine (4)
	Band         int // BSW band half-width in bases
	MaxHits      int // extension candidates per seed (cap)
	ClockHz      float64
	Scoring      align.Scoring
}

// DefaultConfig returns the paper's SeedEx arrangement.
func DefaultConfig() Config {
	return Config{
		Machines:     5,
		BSWCores:     12,
		EditMachines: 4,
		Band:         8,
		MaxHits:      8,
		ClockHz:      2e9,
		Scoring:      align.BWAMEM2(),
	}
}

// Validate checks parameter consistency.
func (c Config) Validate() error {
	switch {
	case c.Machines <= 0 || c.BSWCores <= 0 || c.EditMachines <= 0:
		return fmt.Errorf("seedex: machine counts must be positive")
	case c.Band <= 0 || c.MaxHits <= 0:
		return fmt.Errorf("seedex: band and hit cap must be positive")
	case c.ClockHz <= 0:
		return fmt.Errorf("seedex: clock must be positive")
	default:
		return c.Scoring.Validate()
	}
}

// Seed is one extension candidate: an exact match of read[QStart..QEnd]
// (inclusive) at reference position RefPos.
type Seed struct {
	QStart, QEnd int
	RefPos       int32
}

// Alignment is the chosen alignment for a read.
type Alignment struct {
	Score       int
	SecondScore int // best score among the non-winning extensions (for MAPQ)
	RefStart    int // reference coordinate of the alignment start
	Cigar       align.Cigar
	EditDist    int // edit-machine verification result
	Seed        Seed
}

// Stats counts extension activity for the timing model.
type Stats struct {
	Reads      int64
	Extensions int64 // BSW core invocations
	BSWCycles  int64 // anti-diagonal cycles across all extensions
	EditRuns   int64 // edit machine invocations
	EditCycles int64 // edit machine cycles (one text column per cycle)
}

// Add accumulates another machine's counters, e.g. a worker clone's into
// the machine it was cloned from.
func (s *Stats) Add(o Stats) {
	s.Reads += o.Reads
	s.Extensions += o.Extensions
	s.BSWCycles += o.BSWCycles
	s.EditRuns += o.EditRuns
	s.EditCycles += o.EditCycles
}

// Machine is the SeedEx array bound to a reference. The reference and
// configuration are immutable; Stats and the BSW kernel scratch are
// per-instance, so concurrent extension needs one Clone per goroutine.
type Machine struct {
	cfg Config
	ref dna.Sequence
	fit align.Fitter // BSW scratch, reused across extensions

	Stats Stats
}

// New builds the machine array over ref.
func New(ref dna.Sequence, cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(ref) == 0 {
		return nil, fmt.Errorf("seedex: empty reference")
	}
	return &Machine{cfg: cfg, ref: ref}, nil
}

// Clone returns a machine over the same reference and configuration with
// zero Stats and its own kernel scratch. Clones extend independently; add
// their Stats back (Stats.Add) to total a parallel run.
func (m *Machine) Clone() *Machine {
	return &Machine{cfg: m.cfg, ref: m.ref}
}

// ExtendRead extends every seed (up to MaxHits, longest seeds first) with
// a banded global alignment of the whole read against the seed-implied
// reference window, returns the best alignment, and verifies it on an
// edit machine. ok is false when no seed produced an in-band alignment.
func (m *Machine) ExtendRead(read dna.Sequence, seeds []Seed) (Alignment, bool) {
	m.Stats.Reads++
	if len(read) == 0 || len(seeds) == 0 {
		return Alignment{}, false
	}
	// Longest seeds first: they pin the most reliable diagonals.
	ordered := append([]Seed(nil), seeds...)
	sort.Slice(ordered, func(i, j int) bool {
		li := ordered[i].QEnd - ordered[i].QStart
		lj := ordered[j].QEnd - ordered[j].QStart
		if li != lj {
			return li > lj
		}
		return ordered[i].RefPos < ordered[j].RefPos
	})
	if len(ordered) > m.cfg.MaxHits {
		ordered = ordered[:m.cfg.MaxHits]
	}

	// Extend every retained seed, keep one candidate per distinct
	// reference start (a seed chain converging on the same placement is
	// one alignment, not competing evidence).
	type candidate struct {
		al Alignment
	}
	byStart := map[int]candidate{}
	for _, s := range ordered {
		res, start, ok := m.extendOne(read, s)
		if !ok {
			continue
		}
		refStart := start + res.RefLo
		if prev, dup := byStart[refStart]; !dup || res.Score > prev.al.Score {
			byStart[refStart] = candidate{al: Alignment{
				Score: res.Score, RefStart: refStart, Cigar: res.Cigar, Seed: s,
			}}
		}
	}
	if len(byStart) == 0 {
		return Alignment{}, false
	}
	best := Alignment{Score: -1 << 30}
	second := -1 << 30
	for _, c := range byStart {
		switch {
		case c.al.Score > best.Score || (c.al.Score == best.Score && c.al.RefStart < best.RefStart):
			if best.Score > -1<<30 {
				second = max(second, best.Score)
			}
			best = c.al
		default:
			second = max(second, c.al.Score)
		}
	}
	best.SecondScore = second
	// Edit-machine verification of the winning window.
	winStart := best.RefStart
	winEnd := winStart + best.Cigar.RefLen()
	m.Stats.EditRuns++
	m.Stats.EditCycles += int64(winEnd - winStart)
	best.EditDist = align.EditDistance(read, m.ref[winStart:winEnd])
	return best, true
}

// extendOne aligns the full read against the window implied by the seed's
// diagonal, padded by the band on both sides.
func (m *Machine) extendOne(read dna.Sequence, s Seed) (align.Result, int, bool) {
	diag := int(s.RefPos) - s.QStart // read index 0 maps here on the diagonal
	lo := diag - m.cfg.Band
	hi := diag + len(read) + m.cfg.Band
	if lo < 0 {
		lo = 0
	}
	if hi > len(m.ref) {
		hi = len(m.ref)
	}
	if hi <= lo {
		return align.Result{}, 0, false
	}
	window := m.ref[lo:hi]
	m.Stats.Extensions++
	// Systolic BSW: one anti-diagonal per cycle over the banded matrix.
	m.Stats.BSWCycles += int64(len(read) + 2*m.cfg.Band)
	res, ok := m.fit.Fit(read, window, 2*m.cfg.Band+2, m.cfg.Scoring)
	if !ok {
		return align.Result{}, 0, false
	}
	return res, lo, ok
}

// Seconds converts the accumulated activity into the modelled wall time:
// BSW cycles spread across Machines x BSWCores, edit cycles across
// Machines x EditMachines, and the two overlap (different units).
func (m *Machine) Seconds() float64 {
	bsw := float64(m.Stats.BSWCycles) / (float64(m.cfg.Machines*m.cfg.BSWCores) * m.cfg.ClockHz)
	edit := float64(m.Stats.EditCycles) / (float64(m.cfg.Machines*m.cfg.EditMachines) * m.cfg.ClockHz)
	if edit > bsw {
		return edit
	}
	return bsw
}

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }
