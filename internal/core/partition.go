package core

import (
	"math/bits"

	"casa/internal/dna"
	"casa/internal/smem"
)

// PartStats counts SMEM-computing activity for one partition. Pivot
// counters are the Fig 15 quantities; CAM counters feed the energy model.
type PartStats struct {
	ReadsSeeded    int64 // reads that entered SeedRead
	ReadsDiscarded int64 // reads with no k-mer hit (dropped before the FIFO)
	ReadsExact     int64 // reads resolved by the exact-match prepass

	PivotsTotal         int64 // pivot slots examined
	PivotsFilteredTable int64 // discarded: k-mer absent from the filter
	PivotsFilteredCRkM  int64 // discarded: Analysis 1 (non-extendable SMEM)
	PivotsFilteredAlign int64 // discarded: Analysis 2 (unaligned k-mer)
	PivotsComputed      int64 // pivots that triggered an RMEM search

	RMEMSearches   int64 // RMEM searches started
	StrideSteps    int64 // full-stride CAM match cycles
	BinSearchSteps int64 // binary-search CAM cycles for SMEM ends
	CAMSearches    int64 // computing-CAM search operations
	CAMRowsEnabled int64 // computing-CAM match-line activations

	ComputeCycles int64 // SMEM-computing phase cycles

	Filter FilterStats // pre-seeding filter activity
}

// add accumulates o into s.
func (s *PartStats) add(o PartStats) {
	s.ReadsSeeded += o.ReadsSeeded
	s.ReadsDiscarded += o.ReadsDiscarded
	s.ReadsExact += o.ReadsExact
	s.PivotsTotal += o.PivotsTotal
	s.PivotsFilteredTable += o.PivotsFilteredTable
	s.PivotsFilteredCRkM += o.PivotsFilteredCRkM
	s.PivotsFilteredAlign += o.PivotsFilteredAlign
	s.PivotsComputed += o.PivotsComputed
	s.RMEMSearches += o.RMEMSearches
	s.StrideSteps += o.StrideSteps
	s.BinSearchSteps += o.BinSearchSteps
	s.CAMSearches += o.CAMSearches
	s.CAMRowsEnabled += o.CAMRowsEnabled
	s.ComputeCycles += o.ComputeCycles
	s.Filter.add(o.Filter)
}

// Partition is one reference partition loaded into a CASA instance: the
// reference held by the SMEM computing CAMs plus its pre-seeding filter.
// SeedRead executes Algorithm 1 against it.
type Partition struct {
	cfg    Config
	ref    dna.Sequence
	filter *Filter

	// Stats accumulates activity across SeedRead calls.
	Stats PartStats

	scr partScratch
}

// partScratch holds the partition's reusable per-read buffers. All are
// sized to the read (not the reference), only ever grow, and never escape
// a seeding call, so after warm-up the per-read path stops allocating.
// Clone hands each worker a partition with empty scratch of its own.
type partScratch struct {
	kmers   []dna.Kmer // rolling k-mers of the current read
	starts  []uint64   // per-pivot start masks
	exists  []bool     // per-pivot filter existence
	tagIdx  []int32    // per-pivot filter tag index (-1 absent)
	extLens []int      // per-hit extension lengths (rmemSearch)
	anchors []int      // exact-match anchor offsets
	aStarts []uint64   // exact-check anchor start masks
}

// growN returns s resized to n entries, reusing capacity when possible.
// Contents are unspecified; callers overwrite (or clear) every entry.
func growN[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// NewPartition builds the filter and CAM image for one partition.
func NewPartition(ref dna.Sequence, cfg Config) (*Partition, error) {
	f, err := BuildFilter(ref, cfg)
	if err != nil {
		return nil, err
	}
	return newPartition(cfg, ref, f), nil
}

// newPartition assembles a partition whose filter charges its lookups
// straight into the partition's Stats.Filter, so the stage deltas and the
// filter's own count are one counter set.
func newPartition(cfg Config, ref dna.Sequence, f *Filter) *Partition {
	p := &Partition{cfg: cfg, ref: ref, filter: f}
	f.Stats = &p.Stats.Filter
	return p
}

// Clone returns a partition sharing this one's immutable state (the
// reference and the filter's index arrays) with fresh activity counters.
// Seeding mutates only the counters, so clones may seed concurrently
// without locks.
func (p *Partition) Clone() *Partition {
	return newPartition(p.cfg, p.ref, p.filter.Clone())
}

// Ref returns the partition's reference sequence.
func (p *Partition) Ref() dna.Sequence { return p.ref }

// Filter exposes the partition's pre-seeding filter.
func (p *Partition) Filter() *Filter { return p.filter }

// Config returns the partition's configuration.
func (p *Partition) Config() Config { return p.cfg }

// SeedRead runs CASA's filter-enabled SMEM seeding (Algorithm 1) for one
// read against this partition, returning the SMEMs (length >= MinSMEM)
// with their hit counts. Strand handling lives in the Accelerator: pass
// the reverse complement separately for the other strand.
func (p *Partition) SeedRead(read dna.Sequence) []smem.Match {
	return p.appendSeed(nil, read, p.cfg.ExactMatchPrepass)
}

// appendSeed is SeedRead appending into dst, with the exact-match prepass
// controlled by the caller: the Accelerator's two-stage flow (§4.3)
// performs the exact check separately (ExactCheck) and runs the SMEM stage
// without it. All intermediate arrays live in the partition's scratch, so
// the steady-state call allocates nothing beyond growing dst.
func (p *Partition) appendSeed(dst []smem.Match, read dna.Sequence, prepass bool) []smem.Match {
	p.Stats.ReadsSeeded++
	L := len(read)
	maxPivot := L - p.cfg.K
	if maxPivot < 0 {
		return dst
	}

	// Pre-seeding phase: fetch the search indicators of every pivot's
	// k-mer (both the pivot checks and the CRkM checks of Algorithm 1 read
	// their start masks; the hardware ships them through the FIFO with
	// the read). Without the filter table the naive design skips this
	// phase.
	kmers := p.rollingKmersInto(read)
	starts := growN(p.scr.starts, maxPivot+1)
	exists := growN(p.scr.exists, maxPivot+1)
	tagIdx := growN(p.scr.tagIdx, maxPivot+1)
	p.scr.starts, p.scr.exists, p.scr.tagIdx = starts, exists, tagIdx
	if p.cfg.UseFilterTable {
		// The filter streams lookups from several reads at once ("three
		// reads (together with the reverse strands) are sent to the
		// pre-seeding filter each time", §4.1), so its cycle cost is
		// computed at batch granularity in the Accelerator: lookups are
		// counted here, divided by the bank width there.
		if !p.filter.LookupAll(kmers, tagIdx, starts, exists) {
			// The read never reaches the FIFO or the computing CAMs.
			p.Stats.ReadsDiscarded++
			p.Stats.PivotsTotal += int64(maxPivot + 1)
			p.Stats.PivotsFilteredTable += int64(maxPivot + 1)
			return dst
		}
	} else {
		// Clear stale start masks from the previous read: the no-table
		// configuration leaves them untouched (exactMatch still reads them,
		// and must see the zero value the old fresh allocation provided).
		clear(starts)
		// The tag indices still locate each k-mer's positions for the
		// CAM search, without charging the absent filter.
		for i := 0; i <= maxPivot; i++ {
			exists[i] = true
			tagIdx[i] = p.filter.indexOf(kmers[i])
		}
	}

	// Exact-match pre-processing (§4.3): if the whole read matches the
	// partition, its single SMEM is the read itself and the expensive
	// pivot loop is skipped. Reads shorter than the minimum SMEM length
	// cannot be resolved this way (their full-read match is unreportable).
	if prepass && L >= p.cfg.MinSMEM {
		if hits, ok := p.exactMatch(read, tagIdx, starts, exists); ok {
			p.Stats.ReadsExact++
			return append(dst, smem.Match{Start: 0, End: L - 1, Hits: hits})
		}
	}

	var last smem.Match
	haveLast := false
	for pivot := 0; pivot <= maxPivot; pivot++ {
		p.Stats.PivotsTotal++
		if !exists[pivot] {
			// Table-filtered pivots never reach the FIFO: only existing
			// pivots ship with the read ("sent to the 512-entry FIFO
			// together with its pivots' search indicators", §4.1), so the
			// computing controller never sees them.
			p.Stats.PivotsFilteredTable++
			continue
		}
		p.Stats.ComputeCycles++ // computing controller examines the pivot
		if haveLast && p.cfg.UseAnalysis {
			y := last.End
			crkmStart := y - p.cfg.K + 2 // start of the closest right k-mer
			if pivot <= crkmStart {
				// Analysis 1: is the last SMEM non-extendable? If its CRkM
				// runs off the read or has no hit, every RMEM from this
				// pivot is contained in the last SMEM.
				if y == L-1 || !exists[crkmStart] {
					p.Stats.PivotsFilteredCRkM++
					continue
				}
				// Analysis 2: shifted-AND alignment test between the
				// pivot's k-mer and the CRkM (over-approximates "aligned",
				// never "unaligned", so discarding is safe).
				if !Aligned(starts[pivot], starts[crkmStart], pivot, crkmStart, p.cfg.Stride) {
					p.Stats.PivotsFilteredAlign++
					continue
				}
			}
		}
		p.Stats.PivotsComputed++
		p.Stats.ComputeCycles++ // controller issues the RMEM search
		m, ok := p.rmemSearch(read, pivot, tagIdx[pivot])
		if !ok {
			continue
		}
		// OVERLAP_Check: discard RMEMs fully contained in the last SMEM.
		// RMEM ends are non-decreasing in the pivot, so containment in any
		// previous SMEM reduces to containment in the last one.
		if haveLast && m.End <= last.End {
			continue
		}
		last, haveLast = m, true
		// Candidates arrive with strictly ascending starts, so the output
		// is already canonically sorted; the length filter runs inline.
		if m.Len() >= p.cfg.MinSMEM {
			dst = append(dst, m)
		}
	}
	return dst
}

// rmemSearch performs the unidirectional right-maximal exact match search
// for the k-mer starting at pivot: a padded first search locates the
// k-mer's entries (only the groups named by the indicator are enabled),
// consecutive full-stride matches extend it, and a final binary search
// pins the exact SMEM end (§4.1 "Energy-efficient SMEM Computing CAMs").
// idx is the k-mer's filter tag index (-1 when absent).
func (p *Partition) rmemSearch(read dna.Sequence, pivot int, idx int32) (smem.Match, bool) {
	positions := p.filter.positionsAt(idx)
	p.Stats.RMEMSearches++

	// First search: the padded k-mer query against the enabled groups.
	// groupRows is the match-line cost of a non-entry-gated search: the
	// groups of the indicator's group mask when group gating is on, the
	// whole CAM otherwise.
	entries := int64(p.cfg.EntriesPerPartition())
	groupRows := entries
	if p.cfg.GroupGating && p.cfg.UseFilterTable {
		groups := int64(bits.OnesCount64(occupiedGroups(positions, p.cfg)))
		groupRows = entries / int64(p.cfg.Groups) * groups
	}
	p.Stats.CAMSearches++
	p.Stats.ComputeCycles++
	p.Stats.CAMRowsEnabled += groupRows
	if len(positions) == 0 {
		return smem.Match{}, false
	}

	// Behavioural extension: the longest right extension over every hit.
	// The hardware realizes this as stride-by-stride CAM matching; the
	// result is identical because a stride matches iff the reference
	// extends the read at that hit.
	best := 0
	extLens := growN(p.scr.extLens, len(positions))
	p.scr.extLens = extLens
	for i, pos := range positions {
		ext := p.lce(read, pivot+p.cfg.K, int(pos)+p.cfg.K)
		extLens[i] = p.cfg.K + ext
		if extLens[i] > best {
			best = extLens[i]
		}
	}
	hits := 0
	for _, l := range extLens {
		if l == best {
			hits++
		}
	}

	// Cost model: full-stride match cycles. Stride t (1-based) is matched
	// by the entries that survived stride t-1; with entry gating only the
	// successors of matched entries are enabled, otherwise the whole
	// enabled group stays on.
	fullStrides := best / p.cfg.Stride
	for t := 1; t <= fullStrides; t++ {
		p.Stats.CAMSearches++
		p.Stats.StrideSteps++
		p.Stats.ComputeCycles++
		if p.cfg.EntryGating {
			survivors := int64(0)
			for _, l := range extLens {
				if l >= t*p.cfg.Stride {
					survivors++
				}
			}
			p.Stats.CAMRowsEnabled += survivors
		} else {
			p.Stats.CAMRowsEnabled += groupRows
		}
	}
	// Binary search for the exact end inside the first mismatched stride,
	// unless the match ran to the end of the read.
	if pivot+best < len(read) {
		steps := int64(bits.Len(uint(p.cfg.Stride)))
		p.Stats.BinSearchSteps += steps
		p.Stats.CAMSearches += steps
		p.Stats.ComputeCycles += steps
		if p.cfg.EntryGating {
			p.Stats.CAMRowsEnabled += steps * int64(hits)
		} else {
			p.Stats.CAMRowsEnabled += steps * groupRows
		}
	}
	return smem.Match{Start: pivot, End: pivot + best - 1, Hits: hits}, true
}

// exactMatch implements the §4.3 pre-processing: gather the indicators of
// non-overlapping k-mers across the read, check that they can be mutually
// aligned (shifted-AND, §4.2's machinery), and only then attempt the full
// whole-read CAM match. Aborts at the first unaligned k-mer or mismatch.
func (p *Partition) exactMatch(read dna.Sequence, tagIdx []int32, starts []uint64, exists []bool) (hits int, ok bool) {
	L := len(read)
	maxPivot := L - p.cfg.K
	anchors := p.anchorOffsets(maxPivot)
	for _, a := range anchors {
		p.Stats.ComputeCycles++ // controller gathers and checks one anchor
		if !exists[a] {
			return 0, false
		}
		if a > 0 && !Aligned(starts[0], starts[a], 0, a, p.cfg.Stride) {
			// The anchor cannot be at distance a from the first k-mer in
			// any CAM alignment: the read cannot match exactly.
			return 0, false
		}
	}

	// Whole-read match: extend every hit of the first k-mer.
	positions := p.filter.positionsAt(tagIdx[0])
	strides := (L + p.cfg.Stride - 1) / p.cfg.Stride
	p.Stats.CAMSearches += int64(strides)
	p.Stats.ComputeCycles += int64(strides)
	if p.cfg.GroupGating {
		p.Stats.CAMRowsEnabled += int64(strides) * int64(len(positions))
	} else {
		p.Stats.CAMRowsEnabled += int64(strides) * int64(p.cfg.EntriesPerPartition())
	}
	for _, pos := range positions {
		if p.lce(read, p.cfg.K, int(pos)+p.cfg.K) >= L-p.cfg.K {
			hits++
		}
	}
	return hits, hits > 0
}

// lce returns the longest common extension: the number of bases for which
// read[ri:] equals ref[pi:], bounded by both lengths.
func (p *Partition) lce(read dna.Sequence, ri, pi int) int {
	return dna.MatchLen(read[ri:], p.ref[pi:])
}

// ExactCheck is the standalone exact-match test of the two-stage flow
// (§4.3): it fetches search indicators for a handful of non-overlapping
// anchor k-mers only (not every pivot), checks that the anchors can be
// mutually aligned with the shifted-AND test, and verifies candidates by
// whole-read CAM matching. Its filter cost is therefore ~L/k lookups per
// read instead of the L-k+1 of a full pre-seeding pass — the saving that
// lets the exact-match stage sweep all partitions cheaply.
func (p *Partition) ExactCheck(read dna.Sequence) (hits int, ok bool) {
	L := len(read)
	maxPivot := L - p.cfg.K
	if maxPivot < 0 {
		return 0, false
	}
	anchors := p.anchorOffsets(maxPivot)
	starts := growN(p.scr.aStarts, len(anchors))
	p.scr.aStarts = starts
	var first int32 // anchor 0's tag index
	for ai, a := range anchors {
		p.Stats.ComputeCycles++
		idx, s, exists := p.filter.lookup(dna.PackKmer(read, a, p.cfg.K))
		if !exists {
			return 0, false
		}
		starts[ai] = s
		if ai == 0 {
			first = idx
		} else if !Aligned(starts[0], s, 0, a, p.cfg.Stride) {
			return 0, false
		}
	}
	// Whole-read match: extend every hit of the first anchor.
	positions := p.filter.positionsAt(first)
	strides := (L + p.cfg.Stride - 1) / p.cfg.Stride
	p.Stats.CAMSearches += int64(strides)
	p.Stats.ComputeCycles += int64(strides)
	if p.cfg.GroupGating {
		p.Stats.CAMRowsEnabled += int64(strides) * int64(len(positions))
	} else {
		p.Stats.CAMRowsEnabled += int64(strides) * int64(p.cfg.EntriesPerPartition())
	}
	for _, pos := range positions {
		if p.lce(read, p.cfg.K, int(pos)+p.cfg.K) >= L-p.cfg.K {
			hits++
		}
	}
	if hits > 0 {
		p.Stats.ReadsExact++
		return hits, true
	}
	return 0, false
}

// anchorOffsets fills the scratch anchor list with the exact-match anchor
// offsets: non-overlapping k-mers at 0, K, 2K, ..., plus the final k-mer so
// the tail is covered.
func (p *Partition) anchorOffsets(maxPivot int) []int {
	anchors := p.scr.anchors[:0]
	for off := 0; off <= maxPivot; off += p.cfg.K {
		anchors = append(anchors, off)
	}
	if anchors[len(anchors)-1] != maxPivot {
		anchors = append(anchors, maxPivot)
	}
	p.scr.anchors = anchors
	return anchors
}

// rollingKmersInto packs every k-mer of read in one pass (incremental shift
// instead of repacking k bases per pivot), into the partition's scratch.
func (p *Partition) rollingKmersInto(read dna.Sequence) []dna.Kmer {
	k := p.cfg.K
	n := len(read) - k + 1
	if n <= 0 {
		return nil
	}
	out := growN(p.scr.kmers, n)
	p.scr.kmers = out
	mask := dna.Kmer(1)<<(2*uint(k)) - 1
	var v dna.Kmer
	for i, b := range read {
		v = (v<<2 | dna.Kmer(b)) & mask
		if i >= k-1 {
			out[i-k+1] = v
		}
	}
	return out
}
