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
//
// A read that every retained seed places whole and exactly, with no
// second exact occurrence possible inside a band window, gets the answer
// the fits would give without running them (exactPlacement). The
// modelled counters are charged as if they had run: the shortcut is a
// host-side saving, not a change to the SeedEx machine.
func (m *Machine) ExtendRead(read dna.Sequence, seeds []Seed) (Alignment, bool) {
	return m.extend(read, seeds, true)
}

// extend is ExtendRead; with shortcut false every read takes the banded
// fits, which is the oracle the shortcut is tested against.
func (m *Machine) extend(read dna.Sequence, seeds []Seed, shortcut bool) (Alignment, bool) {
	m.Stats.Reads++
	if len(read) == 0 || len(seeds) == 0 {
		return Alignment{}, false
	}
	ordered := m.retained(seeds)
	if shortcut {
		if best, ok := m.exactPlacement(read, ordered); ok {
			return best, true
		}
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

// retained returns the seeds a read's extension uses, in extension order:
// longest first, since they pin the most reliable diagonals, then by
// reference position, and at most MaxHits of them.
func (m *Machine) retained(seeds []Seed) []Seed {
	ordered := append([]Seed(nil), seeds...)
	sort.Slice(ordered, func(i, j int) bool {
		li := ordered[i].QEnd - ordered[i].QStart
		lj := ordered[j].QEnd - ordered[j].QStart
		if li != lj {
			return li > lj
		}
		return ordered[i].RefPos < ordered[j].RefPos
	})
	return ordered[:min(len(ordered), m.cfg.MaxHits)]
}

// exactPlacement returns the alignment the banded fits of ordered (the
// retained seeds, in extension order) would give, without running them,
// when that alignment is known in advance: every seed spans the whole
// read, a direct compare confirms the read at each seed's position, and
// the read has no period p <= Band.
//
// Why the fits can only agree: a fit scores read length x Match only at
// an ungapped exact occurrence, and keeps the leftmost one in its window.
// The window of a seed at r holds the occurrences starting in
// [r-Band, r+Band]. A second occurrence at distance p <= Band makes p a
// period of the read when p < len(read), and hasPeriodWithin counts every
// p >= len(read) as a period too, so a read that passes has no second
// occurrence in any window. Each fit then places the read at its own
// seed: the candidates tie, the lowest position wins, and SecondScore is
// that same score when two positions differ. The counters are charged as
// extendOne and the edit run would charge them. ok is false, and nothing
// is charged, when any condition fails.
func (m *Machine) exactPlacement(read dna.Sequence, ordered []Seed) (Alignment, bool) {
	n := len(read)
	for _, s := range ordered {
		if s.QStart != 0 || s.QEnd != n-1 || s.RefPos < 0 || int(s.RefPos) > len(m.ref)-n ||
			!read.Equal(m.ref[s.RefPos:int(s.RefPos)+n]) {
			return Alignment{}, false
		}
	}
	if hasPeriodWithin(read, m.cfg.Band) {
		return Alignment{}, false
	}
	// ordered is sorted by RefPos among equal-length seeds: the first is
	// the winner, and any other position is the runner-up.
	best := Alignment{
		Score:       n * m.cfg.Scoring.Match,
		SecondScore: -1 << 30,
		RefStart:    int(ordered[0].RefPos),
		Cigar:       align.Cigar{{Op: align.OpMatch, Len: n}},
		Seed:        ordered[0],
	}
	for _, s := range ordered[1:] {
		if s.RefPos != ordered[0].RefPos {
			best.SecondScore = best.Score
			break
		}
	}
	m.Stats.Extensions += int64(len(ordered))
	m.Stats.BSWCycles += int64(len(ordered)) * int64(n+2*m.cfg.Band)
	m.Stats.EditRuns++
	m.Stats.EditCycles += int64(n)
	return best, true
}

// hasPeriodWithin reports whether read[p:] equals read[:len(read)-p] for
// some p in 1..band, counting every p >= len(read) as a period.
func hasPeriodWithin(read dna.Sequence, band int) bool {
	if len(read) <= band {
		return true
	}
	for p := 1; p <= band; p++ {
		if read[p:].Equal(read[:len(read)-p]) {
			return true
		}
	}
	return false
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
