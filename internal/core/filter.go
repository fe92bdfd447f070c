package core

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"

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
// The build is a two-level radix sort of the k-mer starts by k-mer,
// blocked so that no pass writes at random across the partition's
// tables. The top bits of a k-mer name its block (see blockWidth). One
// rolling pass counts the blocks; a second scatters every position,
// ascending, into its block's slice of the positions table, and the
// k-mer's carry, its bits below the block's, into the same slot of a
// transient table. A blockSorter then orders each block by k-mer while
// it is cache-hot, writing its mini bounds, and a last pass fills the
// tag, start-mask and position-index tables. The carries are the one
// transient table, 4 bytes per base, beside at most 256 KiB of radix
// scratch.
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
	mini := f.mini
	k := cfg.K
	kmerMask := uint64(1)<<(2*uint(k)) - 1
	blockBits := blockWidth(k, cfg.M)
	blocks := 1 << blockBits
	carryBits := uint(2*k - blockBits)
	carryMask := uint64(1)<<carryBits - 1

	// Count: block b's size accumulates in cur[b+1], the last blocks+1
	// mini entries. Placing block b writes its buckets,
	// mini[b<<lowBits:(b+1)<<lowBits], which lie below cur[b+1], so the
	// bounds of the blocks still to place survive until they are read.
	cur := mini[buckets-blocks:]
	var kmer uint64
	for i, b := range part {
		kmer = (kmer<<2 | uint64(b)) & kmerMask
		if i >= k-1 {
			cur[kmer>>carryBits+1].start++
		}
	}
	// Prefix-sum: cur[b] becomes block b's first position, the cursor the
	// scatter advances; largest is the most positions in one block.
	largest := uint32(0)
	for b := 1; b <= blocks; b++ {
		largest = max(largest, cur[b].start)
		cur[b].start += cur[b-1].start
	}
	// Scatter: each block ends up holding its positions in ascending
	// order, each with its carry alongside; placing the block strips the
	// carries to suffixes. Afterwards cur[b] is block b's end, so block
	// b spans the previous block's end to cur[b], and cur[blocks] =
	// mini[buckets] holds n.
	suffixes := hugemem.Advise(make([]uint32, n))
	positions := f.positions
	kmer = 0
	for i, b := range part {
		kmer = (kmer<<2 | uint64(b)) & kmerMask
		if i >= k-1 {
			c := &cur[kmer>>carryBits].start
			positions[*c] = int32(i - k + 1)
			suffixes[*c] = uint32(kmer & carryMask)
			*c++
		}
	}

	// Place each block into its buckets, and count the distinct k-mers to
	// size the tables exactly. Afterwards mini[p] is bucket p's first
	// position.
	lowBits := uint(2*cfg.M - blockBits)
	s := newBlockSorter(int(largest), f.suffixBits)
	distinct := 0
	lo := uint32(0)
	for b := range blocks {
		hi := cur[b].start
		distinct += s.place(mini[b<<lowBits:(b+1)<<lowBits], suffixes[lo:hi], positions[lo:hi], lo)
		lo = hi
	}

	// Fill the tag, start-mask and position-index tables, rewriting each
	// bucket's bound from its first position to its first tag and setting
	// its summary.
	f.tags = hugemem.Advise(make([]uint32, distinct))
	f.data = hugemem.Advise(make([]uint64, distinct))
	f.posIndex = hugemem.Advise(make([]int32, distinct+1))
	stride := newModulus(uint32(cfg.Stride))
	t := int32(-1)
	for p := range buckets {
		lo, hi, first := mini[p].start, mini[p+1].start, uint32(t+1)
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
	}
	mini[buckets].start = uint32(distinct)
	f.posIndex[distinct] = int32(n)
	return f, nil
}

// maxBlockBucketBits bounds the mini buckets per block of BuildFilter's
// scatter to 2^10, so that a block's bucket counts take 4 KiB.
const maxBlockBucketBits = 10

// blockWidth returns the number of top k-mer bits that name a block of
// BuildFilter's scatter. A block spans at most 2^maxBlockBucketBits mini
// buckets, and the carry, the k-mer's other 2k-blockBits bits, must fit
// in a 32-bit slot. Where the tags alone take 32 bits (k-m = 16) a block
// is one bucket, and the scatter is one level.
func blockWidth(k, m int) int {
	return min(2*m, max(2*m-maxBlockBucketBits, 2*k-32, 0))
}

const (
	// radixDigitBits is the widest digit of blockSorter's radix passes:
	// 1024 counters, 4 KiB, per pass.
	radixDigitBits = 10
	digitMask      = 1<<radixDigitBits - 1
	// maxRadixPasses is the passes over a 32-bit suffix and the bucket.
	maxRadixPasses = (32+radixDigitBits-1)/radixDigitBits + 1
	// radixMin is the smallest block blockSorter radix-sorts: below it,
	// clearing and summing the passes' counters costs more than a
	// comparison sort.
	radixMin = 256
	// blockScratchMax caps blockSorter's scratch at 2^14 packed entries
	// per buffer, 256 KiB for the two. A block at the paper's geometry
	// holds 4 Mbase/1024, about 4096 entries; only repeats outgrow it.
	blockScratchMax = 1 << 14
)

// blockSorter orders the blocks of BuildFilter's scatter by k-mer, one at
// a time, while each is cache-hot.
type blockSorter struct {
	suffixBits uint
	// shifts are the carry's radix digits, least significant first: the
	// suffix radixDigitBits at a time, then the bucket within the block.
	// A suffix digit may reach into the bucket's bits; the later bucket
	// pass orders them again, so the order is the same.
	shifts    []uint
	counts    [1 << maxBlockBucketBits]uint32
	hist      [maxRadixPasses][1 << radixDigitBits]uint32
	keys, tmp []uint64 // carry<<32 | position, sized to the largest block up to blockScratchMax
}

func newBlockSorter(largest int, suffixBits uint) *blockSorter {
	s := &blockSorter{
		suffixBits: suffixBits,
		keys:       make([]uint64, min(largest, blockScratchMax)),
		tmp:        make([]uint64, min(largest, blockScratchMax)),
	}
	for shift := uint(0); shift < suffixBits; shift += radixDigitBits {
		s.shifts = append(s.shifts, shift)
	}
	s.shifts = append(s.shifts, suffixBits)
	return s
}

// place sorts one block by k-mer. sub is the block's mini buckets;
// carries and positions are its slice of the scatter, starting at table
// index base, with positions ascending. It sets each bucket's bound in
// sub to the bucket's first index, orders the block by (carry, position),
// strips the carries down to their suffixes and returns the number of
// distinct k-mers.
//
// A block of at least radixMin entries is ordered by stable
// least-significant-digit radix passes over the carry, which keep the
// positions of a k-mer ascending; a smaller one by a comparison sort of
// the packed (carry, position) keys. A block too large for the scratch,
// which only repeats make, is sorted in place instead, so the transient
// memory stays bounded however skewed the partition.
func (s *blockSorter) place(sub []miniEntry, carries []uint32, positions []int32, base uint32) int {
	if len(carries) == 0 {
		for j := range sub {
			sub[j].start = base
		}
		return 0
	}
	counts := s.counts[:len(sub)]
	clear(counts)
	for _, c := range carries {
		counts[c>>s.suffixBits]++
	}
	for j, c := range counts {
		sub[j].start = base
		base += c
	}
	switch n := len(carries); {
	case n > len(s.keys):
		sort.Sort(bucketOrder{carries, positions})
	case n >= radixMin:
		s.radixSort(carries, positions)
	default:
		keys := s.pack(carries, positions)
		slices.Sort(keys)
		unpack(keys, carries, positions)
	}
	mask := uint32(1)<<s.suffixBits - 1
	distinct, prev := 0, uint32(0)
	for x, c := range carries {
		if x == 0 || c != prev {
			distinct++
		}
		prev, carries[x] = c, c&mask
	}
	return distinct
}

// pack returns the block's carry<<32 | position keys in the scratch.
func (s *blockSorter) pack(carries []uint32, positions []int32) []uint64 {
	keys := s.keys[:len(carries)]
	for i, c := range carries {
		keys[i] = uint64(c)<<32 | uint64(positions[i])
	}
	return keys
}

// unpack writes keys back as carries and positions.
func unpack(keys []uint64, carries []uint32, positions []int32) {
	for i, key := range keys {
		carries[i], positions[i] = uint32(key>>32), int32(uint32(key))
	}
}

// radixSort stably sorts carries by their digits, moving each position
// with its carry, through the packed scratch. A pass whose digit every
// key shares moves nothing and is skipped.
func (s *blockSorter) radixSort(carries []uint32, positions []int32) {
	n := len(carries)
	hist := s.hist[:len(s.shifts)]
	for d := range hist {
		clear(hist[d][:])
	}
	for _, c := range carries {
		for d, shift := range s.shifts {
			hist[d][c>>shift&digitMask]++
		}
	}
	keys, tmp := s.pack(carries, positions), s.tmp[:n]
	for d, shift := range s.shifts {
		shift += 32
		h := &hist[d]
		if h[keys[0]>>shift&digitMask] == uint32(n) {
			continue
		}
		sum := uint32(0)
		for v, c := range h {
			h[v] = sum
			sum += c
		}
		for _, key := range keys {
			v := key >> shift & digitMask
			tmp[h[v]] = key
			h[v]++
		}
		keys, tmp = tmp, keys
	}
	unpack(keys, carries, positions)
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

// bucketOrder sorts a block too large for blockSorter's scratch in place
// by (carry, position).
type bucketOrder struct {
	suf []uint32
	pos []int32
}

func (b bucketOrder) Len() int { return len(b.suf) }

func (b bucketOrder) Less(i, j int) bool {
	return b.suf[i] < b.suf[j] || b.suf[i] == b.suf[j] && b.pos[i] < b.pos[j]
}

func (b bucketOrder) Swap(i, j int) {
	b.suf[i], b.suf[j] = b.suf[j], b.suf[i]
	b.pos[i], b.pos[j] = b.pos[j], b.pos[i]
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
