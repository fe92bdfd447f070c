package core

import (
	"fmt"
	"slices"

	"casa/internal/dna"
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
// of entries per pivot.
type Filter struct {
	cfg Config

	mini      []tagRange // len 4^M
	tags      []uint32   // sorted (k-m)-mer values, grouped by m-mer prefix
	data      []SearchIndicator
	posIndex  []int32 // len(tags)+1: range of positions per tag entry
	positions []int32 // occurrence start positions, sorted per k-mer

	// Derived from cfg once at construction (initDerived) so the per-lookup
	// hot path does not recompute the tag split on every call.
	suffixBits uint
	suffixMask uint64

	// Stats accumulates lookup activity; reset by the caller per batch.
	Stats FilterStats
}

// initDerived fills the fields derived from cfg; every construction site
// (build, deserialize, clone) must call it.
func (f *Filter) initDerived() {
	f.suffixBits = uint(2 * (f.cfg.K - f.cfg.M))
	f.suffixMask = uint64(1)<<f.suffixBits - 1
}

// tagRange is one mini-index entry: the start/end pointers into the tag
// array for all (k-m)-mers sharing this m-mer prefix.
type tagRange struct {
	start, end int32
}

// Clone returns a filter sharing this one's index arrays (built offline,
// never written during lookups) with fresh Stats. Lookup and Positions on
// distinct clones are safe to run concurrently.
func (f *Filter) Clone() *Filter {
	c := &Filter{
		cfg:       f.cfg,
		mini:      f.mini,
		tags:      f.tags,
		data:      f.data,
		posIndex:  f.posIndex,
		positions: f.positions,
	}
	c.initDerived()
	return c
}

// BuildFilter constructs the filter for one reference partition. Building
// happens offline in the paper (§4.1, "CASA builds the mini index table
// and the tag table offline for each reference partition").
func BuildFilter(part dna.Sequence, cfg Config) (*Filter, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(part) > cfg.PartitionBases {
		return nil, fmt.Errorf("core: partition of %d bases exceeds configured %d", len(part), cfg.PartitionBases)
	}
	posBits := bitsFor(len(part))
	if 2*cfg.K+posBits > 64 {
		return nil, fmt.Errorf("core: k=%d with %d-base partition does not fit the packed build key", cfg.K, len(part))
	}

	// Pack (k-mer, position) pairs and sort once: lexicographic k-mer
	// order, then position order within a k-mer.
	keys := make([]uint64, max(len(part)-cfg.K+1, 0))
	for x := range keys {
		keys[x] = uint64(dna.PackKmer(part, x, cfg.K))<<uint(posBits) | uint64(x)
	}
	slices.Sort(keys)

	// Size every table exactly: one entry per distinct k-mer, one
	// position per key.
	distinct := 0
	for i, key := range keys {
		if i == 0 || key>>uint(posBits) != keys[i-1]>>uint(posBits) {
			distinct++
		}
	}
	f := &Filter{
		cfg:       cfg,
		mini:      make([]tagRange, dna.NumKmers(cfg.M)),
		tags:      make([]uint32, 0, distinct),
		data:      make([]SearchIndicator, 0, distinct),
		posIndex:  make([]int32, 0, distinct+1),
		positions: make([]int32, len(keys)),
	}
	f.initDerived()
	posMask := uint64(1)<<uint(posBits) - 1
	for i, key := range keys {
		kmer := key >> uint(posBits)
		x := int(key & posMask)
		if i == 0 || kmer != keys[i-1]>>uint(posBits) {
			f.tags = append(f.tags, uint32(kmer&f.suffixMask))
			f.data = append(f.data, SearchIndicator{})
			f.posIndex = append(f.posIndex, int32(i))
			f.mini[kmer>>f.suffixBits].end++ // counted here, ranged below
		}
		last := len(f.data) - 1
		f.data[last] = f.data[last].addOccurrence(x, cfg.Stride, cfg.Groups)
		f.positions[i] = int32(x)
	}
	f.posIndex = append(f.posIndex, int32(len(keys)))

	// Mini index ranges: the sorted keys group the distinct k-mers by
	// m-mer prefix in ascending order, so a running sum of the per-prefix
	// counts gives each prefix's [start, end) in the tag array.
	start := int32(0)
	for p, r := range f.mini {
		f.mini[p] = tagRange{start: start, end: start + r.end}
		start += r.end
	}
	return f, nil
}

// DistinctKmers returns the number of distinct k-mers stored.
func (f *Filter) DistinctKmers() int { return len(f.tags) }

// Lookup reports whether kmer exists in the partition and returns its
// search indicator. It charges the mini-index access, the gated tag-array
// search, and (on a hit) the data-array access.
func (f *Filter) Lookup(kmer dna.Kmer) (SearchIndicator, bool) {
	idx, ok := f.find(kmer)
	if !ok {
		return SearchIndicator{}, false
	}
	f.Stats.DataAccesses++
	return f.data[idx], true
}

// Positions returns the sorted occurrence positions of kmer without
// charging filter activity (the computing phase resolves positions inside
// the computing CAM, not the filter).
func (f *Filter) Positions(kmer dna.Kmer) []int32 {
	idx, ok := f.findQuiet(kmer)
	if !ok {
		return nil
	}
	return f.positions[f.posIndex[idx]:f.posIndex[idx+1]]
}

// Contains reports existence without returning the indicator (still
// charges the lookup: the hardware performs the same accesses).
func (f *Filter) Contains(kmer dna.Kmer) bool {
	_, ok := f.find(kmer)
	return ok
}

// find locates kmer's tag entry, charging filter activity.
func (f *Filter) find(kmer dna.Kmer) (int, bool) {
	f.Stats.Lookups++
	f.Stats.MiniAccesses++
	r := f.mini[uint64(kmer)>>f.suffixBits]
	f.Stats.TagSearches++
	f.Stats.TagRowsEnabled += int64(r.end - r.start)
	idx, ok := f.search(r, uint32(uint64(kmer)&f.suffixMask))
	if ok {
		f.Stats.Hits++
	}
	return idx, ok
}

// findQuiet locates kmer's tag entry without touching Stats.
func (f *Filter) findQuiet(kmer dna.Kmer) (int, bool) {
	return f.search(f.mini[uint64(kmer)>>f.suffixBits], uint32(uint64(kmer)&f.suffixMask))
}

// search is an open-coded binary search over the tag range: sort.Search's
// closure would allocate and indirect on every lookup, and this is the
// hottest loop of the pre-seeding phase.
func (f *Filter) search(r tagRange, suffix uint32) (int, bool) {
	tags := f.tags
	lo, hi := int(r.start), int(r.end)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if tags[mid] < suffix {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < int(r.end) && tags[lo] == suffix {
		return lo, true
	}
	return 0, false
}

// bitsFor returns the number of bits needed to represent values < n.
func bitsFor(n int) int {
	b := 0
	for 1<<uint(b) < n {
		b++
	}
	return b
}
