package core

import (
	"fmt"
	"math/bits"
	"slices"

	"casa/internal/dna"
	"casa/internal/hugemem"
)

// FilterStats counts pre-seeding filter activity for the cycle and energy
// models. Tag rows searched reflects the range decoder's power gating:
// only the rows between the mini-index start/end pointers are enabled
// (§4.1, "the start and end pointers fetched from the mini-index table are
// decoded in a range decoder to power-gating corresponding entries").
type FilterStats struct {
	Lookups        int64 // k-mer existence queries
	Hits           int64 // queries that found the k-mer
	MiniAccesses   int64 // mini index table reads
	TagSearches    int64 // tag-array search operations
	TagRowsEnabled int64 // tag rows activated across all searches
	DataAccesses   int64 // data-array (search indicator) reads
}

// add accumulates o into s.
func (s *FilterStats) add(o FilterStats) {
	s.Lookups += o.Lookups
	s.Hits += o.Hits
	s.MiniAccesses += o.MiniAccesses
	s.TagSearches += o.TagSearches
	s.TagRowsEnabled += o.TagRowsEnabled
	s.DataAccesses += o.DataAccesses
}

// Filter is the pre-seeding filter table for one reference partition: a
// mini index over m-mers, a tag array of (k-m)-mers, and a data array of
// search indicators (Fig 8). It stores only the k-mers that exist in the
// partition, so capacity grows linearly in the partition size (O(4^m + n))
// instead of exponentially in k.
//
// The behavioural model additionally keeps, per distinct k-mer, the sorted
// occurrence positions; the hardware equivalent is the computing CAM
// itself (positions are recovered by CAM matching), but the SMEM computing
// model needs them to resolve hits without a bit-level search of millions
// of entries per pivot. Because the positions are at hand, the data array
// holds only each indicator's start mask: its group mask is
// occupiedGroups of the positions, derived where the group gating reads
// it.
//
// Each mini entry is 8 bytes: the bucket's first-tag bound in the low
// half and, in the high half, a 32-bit summary of the bucket's tags with
// bit summaryBit(tag) set for each. It is the tag compare of the
// paper's cache-like filter (§4.1) done on the host before the tag array
// is read: a probe whose suffix's bit is clear is absent, and the tags
// stay untouched, so most absent probes cost one cache line instead of
// two. The summary is host-only. A probe it rules out still charges the
// lookup, mini access, tag search and rows the range decoder enables, so
// FilterStats, the cycle model and the energy model do not see it.
type Filter struct {
	cfg Config

	mini      []miniEntry // len 4^M+1: bucket p's tags are tags[mini[p].start:mini[p+1].start]
	tags      []uint32    // sorted (k-m)-mer values, grouped by m-mer prefix
	data      []uint64    // per tag: the start mask of its search indicator
	posIndex  []int32     // len(tags)+1: range of positions per tag entry
	positions []int32     // occurrence start positions, sorted per k-mer

	// Derived from cfg once at construction (initDerived) so the per-lookup
	// hot path does not recompute the tag split on every call.
	suffixBits uint
	suffixMask uint64

	// Stats is the counter set lookups charge: the owning partition's
	// PartStats.Filter (newPartition), or the filter's own when it stands
	// alone (BuildFilter, Clone). The caller resets it per batch.
	Stats *FilterStats

	ranges []tagRange // LookupAll's gathered mini ranges, reused per call
}

// initDerived fills the fields derived from cfg; every construction site
// (build, deserialize, clone) must call it.
func (f *Filter) initDerived() {
	f.suffixBits = uint(2 * (f.cfg.K - f.cfg.M))
	f.suffixMask = uint64(1)<<f.suffixBits - 1
}

// miniEntry is one mini bucket's entry: its first tag's index and the
// summary of its tags. The two halves are separate words so that
// ReadIndex's workers can fill summaries while others read bounds.
type miniEntry struct {
	start   uint32 // the bucket's first tag; the next entry's start ends it
	summary uint32 // bit summaryBit(tag) set for each of the bucket's tags
}

// summaryBit is a tag's bit in its bucket's summary: the top 5 bits of a
// multiplicative (Fibonacci) hash of the suffix. The mask changes no
// value; it lets the compiler drop the guard of a shift by 32 or more.
func summaryBit(suffix uint32) uint {
	return uint(suffix*0x9E3779B1>>27) & 31
}

// tagRange is one mini bucket's start/end pointers into the tag array:
// the (k-m)-mers sharing one m-mer prefix.
type tagRange struct {
	start, end int32
}

// bucket returns the tag range to search for kmer, and the rows of its
// mini bucket, which the range decoder enables whatever the search. The
// range is the bucket's, or empty when the bucket's summary rules kmer
// out; search answers an empty range without reading a tag.
func (f *Filter) bucket(kmer dna.Kmer) (r tagRange, rows int32) {
	p := uint64(kmer) >> f.suffixBits
	e := f.mini[p]
	start := int32(e.start)
	rows = int32(f.mini[p+1].start) - start
	pass := int32(e.summary>>summaryBit(uint32(uint64(kmer)&f.suffixMask))) & 1
	return tagRange{start, start + rows&-pass}, rows
}

// Clone returns a filter sharing this one's index arrays (built offline,
// never written during lookups) with fresh Stats of its own and scratch.
// Lookups and Positions on distinct clones are safe to run concurrently.
func (f *Filter) Clone() *Filter {
	c := &Filter{
		cfg:       f.cfg,
		mini:      f.mini,
		tags:      f.tags,
		data:      f.data,
		posIndex:  f.posIndex,
		positions: f.positions,
		Stats:     new(FilterStats),
	}
	c.initDerived()
	return c
}

// BuildFilter constructs the filter for one reference partition. Building
// happens offline in the paper (§4.1, "CASA builds the mini index table
// and the tag table offline for each reference partition").
//
// The mini index is the bucket table of a counting sort: one rolling pass
// counts each k-mer's m-mer prefix into its bucket, a second scatters
// every position (ascending, since the scan runs in order) with its
// (k-m)-mer suffix into the bucket's slice of the positions table, and
// each bucket is then ordered stably by suffix. The bound halves of the
// mini entries serve as the counts, then the scatter cursors, then the
// tag bounds; the tag fill sets each summary as it goes. The suffixes
// are the one transient table, 4 bytes per base; a bucket too large for
// insertion sort borrows 8 bytes per entry more while it sorts.
func BuildFilter(part dna.Sequence, cfg Config) (*Filter, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(part) > cfg.PartitionBases {
		return nil, fmt.Errorf("core: partition of %d bases exceeds configured %d", len(part), cfg.PartitionBases)
	}
	n := max(len(part)-cfg.K+1, 0) // k-mer starts
	buckets := dna.NumKmers(cfg.M)
	f := &Filter{
		cfg:       cfg,
		mini:      hugemem.Advise(make([]miniEntry, buckets+1)),
		positions: hugemem.Advise(make([]int32, n)),
		Stats:     new(FilterStats),
	}
	f.initDerived()
	mini, bits, mask := f.mini, f.suffixBits, f.suffixMask
	k := cfg.K
	kmerMask := uint64(1)<<(2*uint(k)) - 1

	// Count: bucket p's size accumulates in mini[p+1].
	var kmer uint64
	for i, b := range part {
		kmer = (kmer<<2 | uint64(b)) & kmerMask
		if i >= k-1 {
			mini[kmer>>bits+1].start++
		}
	}
	// Prefix-sum: mini[p] becomes bucket p's first position, the cursor
	// the scatter advances.
	for p := 1; p <= buckets; p++ {
		mini[p].start += mini[p-1].start
	}
	// Scatter: each bucket ends up holding its positions in ascending
	// order, each with its suffix alongside. Afterwards mini[p] is bucket
	// p's end, so bucket p spans the previous bucket's end to mini[p].
	suffixes := hugemem.Advise(make([]uint32, n))
	positions := f.positions
	kmer = 0
	for i, b := range part {
		kmer = (kmer<<2 | uint64(b)) & kmerMask
		if i >= k-1 {
			c := &mini[kmer>>bits].start
			positions[*c] = int32(i - k + 1)
			suffixes[*c] = uint32(kmer & mask)
			*c++
		}
	}

	// Order each bucket by suffix, keeping positions ascending within a
	// k-mer, and count the distinct k-mers to size the tables exactly.
	distinct := 0
	var wide []uint64
	lo := uint32(0)
	for _, e := range mini[:buckets] {
		hi := e.start
		suf, pos := suffixes[lo:hi], positions[lo:hi]
		if len(suf) > insertionSortMax {
			wide = sortBucketWide(suf, pos, wide)
		} else {
			insertionSortBucket(suf, pos)
		}
		for j := range suf {
			if j == 0 || suf[j] != suf[j-1] {
				distinct++
			}
		}
		lo = hi
	}

	// Fill the tag, start-mask and position-index tables, rewriting each
	// bucket's bound from its position end to its first tag and setting
	// its summary.
	f.tags = hugemem.Advise(make([]uint32, distinct))
	f.data = hugemem.Advise(make([]uint64, distinct))
	f.posIndex = hugemem.Advise(make([]int32, distinct+1))
	stride := newModulus(uint32(cfg.Stride))
	t := int32(-1)
	lo = 0
	for p := range buckets {
		hi, first := mini[p].start, uint32(t+1)
		var summary uint32
		for i := lo; i < hi; i++ {
			if i == lo || suffixes[i] != suffixes[i-1] {
				t++
				f.tags[t] = suffixes[i]
				f.posIndex[t] = int32(i)
				summary |= 1 << summaryBit(suffixes[i])
			}
			f.data[t] |= 1 << stride.of(uint32(positions[i]))
		}
		mini[p] = miniEntry{first, summary}
		lo = hi
	}
	mini[buckets].start = uint32(distinct)
	f.posIndex[distinct] = int32(n)
	return f, nil
}

// modulus computes x % d without a divide instruction (Lemire, Kaser and
// Kurz, "Faster remainder by direct computation"): with m the 64-bit
// reciprocal of d rounded up, the low word of m*x is the fraction x/d,
// and multiplying it by d carries x % d into the high word. It is exact
// for every 32-bit x and d >= 1.
type modulus struct{ m, d uint64 }

func newModulus(d uint32) modulus { return modulus{^uint64(0)/uint64(d) + 1, uint64(d)} }

func (q modulus) of(x uint32) uint {
	hi, _ := bits.Mul64(q.m*uint64(x), q.d)
	return uint(hi)
}

// insertionSortMax is the largest mini bucket BuildFilter orders by
// insertion sort. Buckets average n/4^m entries (4 at the paper's 4 Mbase
// partitions and m=10); only repeats outgrow it.
const insertionSortMax = 32

// insertionSortBucket stably sorts a bucket's suffixes, moving each
// position with its suffix.
func insertionSortBucket(suf []uint32, pos []int32) {
	for i := 1; i < len(suf); i++ {
		s, p := suf[i], pos[i]
		j := i
		for ; j > 0 && suf[j-1] > s; j-- {
			suf[j], pos[j] = suf[j-1], pos[j-1]
		}
		suf[j], pos[j] = s, p
	}
}

// sortBucketWide sorts a large bucket by (suffix, position), which is the
// stable suffix order because positions are distinct and arrive ascending.
// It packs the pairs into scratch, which it grows and returns for reuse.
func sortBucketWide(suf []uint32, pos []int32, scratch []uint64) []uint64 {
	keys := growN(scratch, len(suf))
	for i := range keys {
		keys[i] = uint64(suf[i])<<32 | uint64(pos[i])
	}
	slices.Sort(keys)
	for i, key := range keys {
		suf[i], pos[i] = uint32(key>>32), int32(uint32(key))
	}
	return keys
}

// DistinctKmers returns the number of distinct k-mers stored.
func (f *Filter) DistinctKmers() int { return len(f.tags) }

// Lookup reports whether kmer exists in the partition and returns its
// search indicator's start mask. It charges the mini-index access, the
// gated tag-array search, and (on a hit) the data-array access.
func (f *Filter) Lookup(kmer dna.Kmer) (uint64, bool) {
	_, starts, ok := f.lookup(kmer)
	return starts, ok
}

// lookup is Lookup that also returns the k-mer's tag index, from which
// positionsAt reads its occurrences without a second search.
func (f *Filter) lookup(kmer dna.Kmer) (int32, uint64, bool) {
	idx, ok := f.find(kmer)
	if !ok {
		return -1, 0, false
	}
	f.Stats.DataAccesses++
	return idx, f.data[idx], true
}

// LookupAll is Lookup over every k-mer of kmers, writing each one's tag
// index (-1 when absent), start mask (0 when absent) and existence into
// the parallel slices idx, starts and exists (each at least len(kmers)
// long), and reporting whether any k-mer exists. It charges exactly the
// activity of one Lookup per k-mer.
//
// The lookups run in passes, as the filter streams a read's pivots
// (§4.1), so that independent cache misses are in flight together instead
// of one pivot's chain at a time: the first pass gathers every mini-index
// range, the second runs the branch-free tag searches over the gathered
// ranges, and the third fetches the hits' indicators. A range the
// bucket's summary empties skips the tags in the second pass. The host
// order of the accesses is not a model input: the filter's cycles come
// from the lookup count alone.
func (f *Filter) LookupAll(kmers []dna.Kmer, idx []int32, starts []uint64, exists []bool) bool {
	n := len(kmers)
	ranges := growN(f.ranges, n)
	f.ranges = ranges
	idx, starts, exists = idx[:n], starts[:n], exists[:n]
	var rows, hits int64
	for i, kmer := range kmers {
		r, enabled := f.bucket(kmer)
		ranges[i] = r
		rows += int64(enabled)
	}
	for i, kmer := range kmers {
		idx[i] = f.search(ranges[i], uint32(uint64(kmer)&f.suffixMask))
	}
	for i, j := range idx {
		exists[i] = j >= 0
		if j >= 0 {
			hits++
			starts[i] = f.data[j]
		} else {
			starts[i] = 0
		}
	}
	s := f.Stats
	s.Lookups += int64(n)
	s.MiniAccesses += int64(n)
	s.TagSearches += int64(n)
	s.TagRowsEnabled += rows
	s.Hits += hits
	s.DataAccesses += hits
	return hits > 0
}

// Positions returns the sorted occurrence positions of kmer without
// charging filter activity (the computing phase resolves positions inside
// the computing CAM, not the filter).
func (f *Filter) Positions(kmer dna.Kmer) []int32 {
	return f.positionsAt(f.indexOf(kmer))
}

// positionsAt returns the occurrence positions of the k-mer at tag index
// idx, or nil for idx -1 (an absent k-mer).
func (f *Filter) positionsAt(idx int32) []int32 {
	if idx < 0 {
		return nil
	}
	return f.positions[f.posIndex[idx]:f.posIndex[idx+1]]
}

// indexOf returns kmer's tag index, or -1 when it is absent, without
// touching Stats.
func (f *Filter) indexOf(kmer dna.Kmer) int32 {
	r, _ := f.bucket(kmer)
	return f.search(r, uint32(uint64(kmer)&f.suffixMask))
}

// Contains reports existence without returning the indicator (still
// charges the lookup: the hardware performs the same accesses).
func (f *Filter) Contains(kmer dna.Kmer) bool {
	_, ok := f.find(kmer)
	return ok
}

// find locates kmer's tag entry, charging filter activity.
func (f *Filter) find(kmer dna.Kmer) (int32, bool) {
	f.Stats.Lookups++
	f.Stats.MiniAccesses++
	r, rows := f.bucket(kmer)
	f.Stats.TagSearches++
	f.Stats.TagRowsEnabled += int64(rows)
	idx := f.search(r, uint32(uint64(kmer)&f.suffixMask))
	if idx < 0 {
		return -1, false
	}
	f.Stats.Hits++
	return idx, true
}

// search finds suffix in the tag range r, whose tags are strictly
// increasing. It is a branchless binary search: each step halves n and
// advances base by half under a mask, so no step is a branch the
// predictor must guess, the trip count depends only on the range size,
// and consecutive pivots' searches overlap in the pipeline. base ends on
// the last tag not above suffix, and one compare decides the hit. It
// returns the tag index of suffix, or -1 when the range lacks it.
func (f *Filter) search(r tagRange, suffix uint32) int32 {
	tags := f.tags[r.start:r.end]
	n := len(tags)
	if n == 0 {
		return -1
	}
	base := 0
	for n > 1 {
		half := n >> 1
		// All ones when tags[base+half] <= suffix, else zero. An if
		// would stay a branch: the compiler does not turn a loop-carried
		// update into a conditional move.
		le := int((int64(tags[base+half]) - int64(suffix) - 1) >> 63)
		base += half & le
		n -= half
	}
	idx := r.start + int32(base)
	if tags[base] != suffix {
		idx = -1
	}
	return idx
}
