// Package smem defines maximal exact matches (MEMs), super-maximal exact
// matches (SMEMs) and right-maximal exact matches (RMEMs) over a read and a
// reference (§2.1 of the paper), and provides two independent SMEM
// finders used to cross-validate each other and the CASA simulator:
//
//   - BruteForce: definition-based golden model (trusted by construction).
//   - Bidirectional: BWA-MEM2-style search (forward search + backward
//     maximal extension, Fig 1(a)).
//
// Both produce identical SMEM sets; the property tests assert this,
// mirroring the paper's validation that "CASA produces identical SMEMs to
// GenAx and 100% SMEMs of BWA-MEM2 are contained" (§6).
package smem

import (
	"slices"
	"strconv"

	"casa/internal/dna"
	"casa/internal/fmindex"
)

// Match is an exact match of read[Start..End] (inclusive bounds) against
// the reference, with its occurrence count.
type Match struct {
	Start int // first read index of the match
	End   int // last read index of the match (inclusive)
	Hits  int // number of occurrences in the reference
}

// Len returns the match length in bases.
func (m Match) Len() int { return m.End - m.Start + 1 }

// Contains reports whether m fully contains o on the read.
func (m Match) Contains(o Match) bool { return m.Start <= o.Start && o.End <= m.End }

// String formats the match as "[start,end]xhits".
func (m Match) String() string { return string(m.Append(nil)) }

// Append appends m's String form to b without allocating beyond b's
// growth, for writers that format many matches into one buffer.
func (m Match) Append(b []byte) []byte {
	b = append(b, '[')
	b = strconv.AppendInt(b, int64(m.Start), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(m.End), 10)
	b = append(b, "]x"...)
	return strconv.AppendInt(b, int64(m.Hits), 10)
}

// sortInline is the size up to which the canonicalizing sorts use insertion
// sort. Candidate sets arrive nearly sorted (appended in pivot order), so
// insertion sort is close to linear there, and both paths allocate nothing —
// unlike sort.Slice, whose closure and interface conversion cost two heap
// allocations per call.
const sortInline = 64

// Sort orders matches by start, then end. SMEM sets are canonicalized this
// way before comparison.
func Sort(ms []Match) {
	if len(ms) > sortInline {
		slices.SortFunc(ms, func(a, b Match) int {
			if a.Start != b.Start {
				return a.Start - b.Start
			}
			return a.End - b.End
		})
		return
	}
	for i := 1; i < len(ms); i++ {
		m := ms[i]
		j := i - 1
		for j >= 0 && (ms[j].Start > m.Start || (ms[j].Start == m.Start && ms[j].End > m.End)) {
			ms[j+1] = ms[j]
			j--
		}
		ms[j+1] = m
	}
}

// SortCover orders matches in cover order: start ascending, end descending.
// In this order a match is contained in another candidate exactly when some
// earlier entry's end reaches its end, so containment filtering becomes one
// linear scan with a running maximum (see dedupAppend).
func SortCover(ms []Match) {
	if len(ms) > sortInline {
		slices.SortFunc(ms, func(a, b Match) int {
			if a.Start != b.Start {
				return a.Start - b.Start
			}
			return b.End - a.End
		})
		return
	}
	for i := 1; i < len(ms); i++ {
		m := ms[i]
		j := i - 1
		for j >= 0 && (ms[j].Start > m.Start || (ms[j].Start == m.Start && ms[j].End < m.End)) {
			ms[j+1] = ms[j]
			j--
		}
		ms[j+1] = m
	}
}

// Retain copies a scratch-backed match set into an exactly sized fresh
// slice that is safe to keep after the scratch is reused. Empty sets return
// nil, matching the append-built results of the non-pooled paths (relevant
// for JSON round-trips, where nil and empty marshal differently).
func Retain(ms []Match) []Match {
	if len(ms) == 0 {
		return nil
	}
	out := make([]Match, len(ms))
	copy(out, ms)
	return out
}

// Equal reports whether two canonicalized match sets contain the same
// intervals (Hits included).
func Equal(a, b []Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// SameIntervals reports whether two canonicalized match sets contain the
// same intervals, ignoring hit counts.
func SameIntervals(a, b []Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Start != b[i].Start || a[i].End != b[i].End {
			return false
		}
	}
	return true
}

// FilterMinLen returns the matches with length >= minLen, preserving order.
// BWA-MEM2 only reports SMEMs at least l = 19 bases long.
func FilterMinLen(ms []Match, minLen int) []Match {
	out := ms[:0:0]
	for _, m := range ms {
		if m.Len() >= minLen {
			out = append(out, m)
		}
	}
	return out
}

// Finder computes the SMEMs of a read against a fixed reference. minLen is
// the minimum reported SMEM length (l in the paper, 19 by default).
type Finder interface {
	FindSMEMs(read dna.Sequence, minLen int) []Match
}

// ---------------------------------------------------------------------------
// Golden brute-force finder.

// BruteForce is the definition-based golden SMEM finder. It checks
// substring occurrence by scanning the reference directly, so it shares no
// code with the indexed finders. Quadratic in read length and linear in
// reference length per check: use only on small inputs (tests).
type BruteForce struct {
	Ref dna.Sequence
}

// occurs reports whether read[i..j] (inclusive) occurs in the reference.
func (b BruteForce) occurs(read dna.Sequence, i, j int) bool {
	if i < 0 || j >= len(read) || i > j {
		return false
	}
	pat := read[i : j+1]
outer:
	for p := 0; p+len(pat) <= len(b.Ref); p++ {
		for q, base := range pat {
			if b.Ref[p+q] != base {
				continue outer
			}
		}
		return true
	}
	return false
}

// countHits counts the occurrences of read[i..j] in the reference.
func (b BruteForce) countHits(read dna.Sequence, i, j int) int {
	pat := read[i : j+1]
	n := 0
outer:
	for p := 0; p+len(pat) <= len(b.Ref); p++ {
		for q, base := range pat {
			if b.Ref[p+q] != base {
				continue outer
			}
		}
		n++
	}
	return n
}

// FindMEMs returns every maximal exact match by definition: read[i..j]
// occurs, and neither read[i-1..j] nor read[i..j+1] occurs (or the
// extension runs off the read).
func (b BruteForce) FindMEMs(read dna.Sequence) []Match {
	var mems []Match
	for i := 0; i < len(read); i++ {
		// Largest j for this i (right-maximal).
		j := -1
		for e := i; e < len(read); e++ {
			if b.occurs(read, i, e) {
				j = e
			} else {
				break
			}
		}
		if j < i {
			continue
		}
		// MEM requires left-maximality too.
		if i > 0 && b.occurs(read, i-1, j) {
			continue
		}
		mems = append(mems, Match{Start: i, End: j, Hits: b.countHits(read, i, j)})
	}
	return mems
}

// FindSMEMs returns the SMEMs: MEMs not contained in any other MEM,
// filtered to length >= minLen.
func (b BruteForce) FindSMEMs(read dna.Sequence, minLen int) []Match {
	mems := b.FindMEMs(read)
	var smems []Match
	for i, m := range mems {
		contained := false
		for j, o := range mems {
			if i != j && o.Contains(m) {
				contained = true
				break
			}
		}
		if !contained {
			smems = append(smems, m)
		}
	}
	smems = FilterMinLen(smems, minLen)
	Sort(smems)
	return smems
}

// ---------------------------------------------------------------------------
// FM-index-backed finders.

// Bidirectional finds SMEMs with the BWA-MEM2 strategy: from each pivot,
// forward-search to the longest right extension, recording where hit counts
// change; then backward-search maximal left extensions and keep the
// super-maximal ones. The next pivot is the first mismatch position, so a
// read is covered in few iterations.
type Bidirectional struct {
	Index *fmindex.Bidirectional

	// Steps counts FM-index extension operations performed by the last
	// FindSMEMs call, for the CPU/ERT cost models.
	Steps int

	scr bidiScratch
}

// bidiScratch holds the per-instance buffers of the hot search path. Each
// buffer is reset by reslicing to length zero and only ever grows, so after
// a warm-up read the steady-state search allocates nothing. The buffers are
// never shared: Clone hands each worker empty scratch of its own, and
// nothing scratch-backed escapes a FindSMEMs/AppendSMEMs call.
type bidiScratch struct {
	steps []fmindex.ForwardStep // forward-search steps of the current pivot
	leps  []int                 // left extension points of the current pivot
	cands []Match               // SMEM candidates of the current read
	back  []backExt             // per-LEP extension results, in LEP order
	ivs   []fmindex.Interval    // live chains' FM intervals (compacted)
	xs    []int32               // live chains' next read index
	lep   []int32               // live chains' back[] record index
	bs    []dna.Base            // ExtendLeftMany bases, gathered per round
	out   []fmindex.Interval    // ExtendLeftMany outputs
}

// backExt records one LEP's backward maximal extension: start stays end+1
// (and hits 0) until the first successful left extension, matching
// LongestMatchEndingAt's not-found convention.
type backExt struct {
	end   int // fixed right end (the LEP)
	start int // start of the longest extension found so far
	hits  int // hit count of that extension
}

// NewBidirectional builds the finder (and both FM-indexes) over ref.
func NewBidirectional(ref dna.Sequence) *Bidirectional {
	return &Bidirectional{Index: fmindex.BuildBidirectional(ref)}
}

// FromIndex wraps already-built FM-indexes (e.g. deserialized from a
// persistent index) as a finder; scratch grows on first use.
func FromIndex(ix *fmindex.Bidirectional) *Bidirectional {
	return &Bidirectional{Index: ix}
}

// Clone returns a finder sharing the FM-indexes (read-only during search)
// with its own Steps counter, so clones can search concurrently.
func (f *Bidirectional) Clone() *Bidirectional {
	return &Bidirectional{Index: f.Index}
}

// FindSMEMs implements Finder. It allocates the returned slice; hot paths
// use AppendSMEMs with a reusable destination instead.
func (f *Bidirectional) FindSMEMs(read dna.Sequence, minLen int) []Match {
	return f.AppendSMEMs(nil, read, minLen)
}

// AppendSMEMs appends the SMEMs of read to dst and returns the extended
// slice. All intermediate state lives in the finder's scratch buffers, so
// once those have grown past the largest read the call performs no heap
// allocation beyond growing dst itself. The SMEM set and the Steps count
// are identical to the scalar search's.
func (f *Bidirectional) AppendSMEMs(dst []Match, read dna.Sequence, minLen int) []Match {
	f.Steps = 0
	cands := f.scr.cands[:0]
	pivot := 0
	for pivot < len(read) {
		steps := f.Index.ForwardSearchAppend(f.scr.steps[:0], read, pivot)
		f.scr.steps = steps
		f.Steps += len(steps) + 1
		if len(steps) == 0 {
			pivot++
			continue
		}
		// LEPs: ends where the hit count changes (including the last end).
		leps := f.scr.leps[:0]
		for i, st := range steps {
			if i+1 == len(steps) || steps[i+1].Hits != st.Hits {
				leps = append(leps, st.End)
			}
		}
		f.scr.leps = leps
		if len(leps) == 1 {
			// One extension chain: the batch machinery would only add
			// bookkeeping.
			e := leps[0]
			start, hits, ok := f.Index.LongestMatchEndingAt(read, e)
			f.Steps += e - start + 2
			if ok {
				cands = append(cands, Match{Start: start, End: e, Hits: hits})
			}
		} else {
			cands = f.extendLeftBatch(cands, read, leps)
		}
		pivot = steps[len(steps)-1].End + 1 // first mismatch becomes next pivot
	}
	f.scr.cands = cands
	return dedupAppend(dst, cands, minLen)
}

// extendLeftBatch runs the backward maximal extensions of one pivot's LEPs
// concurrently: each round gathers the still-live searches and resolves all
// their next steps through a single ExtendLeftMany pass, so the dependent
// rank lookups of independent LEPs overlap in the memory system instead of
// serializing. Candidates are appended in LEP order and Steps is charged
// exactly as the scalar per-LEP search would, keeping model numbers
// byte-identical.
// narrowWidth is the occurrence count at or below which a backward chain
// leaves the rank domain and finishes by comparing the text at each
// occurrence directly (suffix-array positions are known, so each step is a
// handful of byte compares instead of two dependent Occ lookups).
const narrowWidth = 4

func (f *Bidirectional) extendLeftBatch(cands []Match, read dna.Sequence, leps []int) []Match {
	n := len(leps)
	back := growSlice(f.scr.back[:0], n)
	ivs := growSlice(f.scr.ivs[:0], n)
	xs := growSlice(f.scr.xs[:0], n)
	lep := growSlice(f.scr.lep[:0], n)
	bs := growSlice(f.scr.bs[:0], n)
	out := growSlice(f.scr.out[:0], n)
	f.scr.back, f.scr.ivs, f.scr.xs = back, ivs, xs
	f.scr.lep, f.scr.bs, f.scr.out = lep, bs, out

	fwd := f.Index.Fwd
	text := fwd.Text()
	all := fwd.All()
	for i, e := range leps {
		back[i] = backExt{end: e, start: e + 1}
		ivs[i], xs[i], lep[i] = all, int32(e), int32(i)
	}
	// Each round extends every live chain by one base through a single
	// ExtendLeftMany pass, then compacts the live chains to the array
	// prefix (order-preserving, so compaction never reorders work).
	for n > 0 {
		for i := 0; i < n; i++ {
			bs[i] = read[xs[i]]
		}
		fwd.ExtendLeftMany(ivs[:n], bs[:n], out[:n])
		w := 0
		for i := 0; i < n; i++ {
			if out[i].Empty() {
				continue // chain retired: mismatch
			}
			rec := &back[lep[i]]
			start := int(xs[i])
			rec.start = start
			rec.hits = out[i].Width()
			if rec.hits <= narrowWidth {
				// Few enough occurrences that tracking each text position
				// directly beats further rank rounds: an extension keeps
				// exactly the occurrences whose preceding text base matches,
				// so the surviving count is the next interval width. The
				// chain retires from the rank-batched rounds immediately.
				var pos [narrowWidth]int32
				width := rec.hits
				for k := 0; k < width; k++ {
					pos[k] = fwd.SuffixAt(out[i].Lo + int32(k))
				}
				for start > 0 {
					b := read[start-1]
					live := 0
					for k := 0; k < width; k++ {
						if p := pos[k]; p > 0 && text[p-1] == b {
							pos[live] = p - 1
							live++
						}
					}
					if live == 0 {
						break
					}
					width = live
					start--
					rec.start, rec.hits = start, width
				}
				continue
			}
			x := xs[i] - 1
			if x < 0 {
				continue // chain retired: reached the read start
			}
			ivs[w], xs[w], lep[w] = out[i], x, lep[i]
			w++
		}
		n = w
	}
	for i := range back {
		b := &back[i]
		f.Steps += b.end - b.start + 2
		if b.start <= b.end {
			cands = append(cands, Match{Start: b.start, End: b.end, Hits: b.hits})
		}
	}
	return cands
}

// growSlice returns s resized to n entries, reusing capacity when
// possible. Contents are unspecified; callers overwrite every entry.
func growSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// SeedCost returns the modelled cost of the most recent FindSMEMs call in
// FM-index extension steps — the per-read span duration the traced batch
// runner records for finder-backed engines.
func (f *Bidirectional) SeedCost() int64 { return int64(f.Steps) }

// dedupAppend canonicalizes cands in place — cover-order sort, exact
// duplicates and contained candidates dropped, minimum length applied last
// (short candidates still participate in containment) — and appends the
// surviving SMEMs to dst. In cover order a candidate is contained in
// another exactly when an earlier entry's end reaches its end, so one
// linear scan with a running maximum replaces the quadratic pairwise
// containment check. Survivors have strictly increasing starts and ends, so
// the output is already in canonical Sort order.
func dedupAppend(dst, cands []Match, minLen int) []Match {
	SortCover(cands)
	maxEnd := -1
	prevStart, prevEnd := -1, -1
	for _, m := range cands {
		if m.Start == prevStart && m.End == prevEnd {
			continue // exact duplicate (equal intervals imply equal hits)
		}
		prevStart, prevEnd = m.Start, m.End
		if m.End <= maxEnd {
			continue // contained in an earlier, longer candidate
		}
		maxEnd = m.End
		if m.Len() >= minLen {
			dst = append(dst, m)
		}
	}
	return dst
}
