// Package fmindex implements the FM-index used by BWA-MEM2-style seeding
// (§2.2, Fig 2 of the paper): suffix array, Burrows-Wheeler transform,
// C (count) table and Occ (occurrence) table, with backward search over
// half-open suffix-array intervals.
//
// The BWT is stored in the production layout real aligners use: two bit
// planes (low/high bit of the 2-bit base code) in 64-symbol blocks with
// per-block cumulative counts, so one rank() is a table read plus a
// popcount — the paper's point that each extension step is a single
// dependent memory access.
//
// Each backward-extension step performs the classic update
//
//	s = C(q) + Occ(s-1, q),  e = C(q) + Occ(e, q) - 1
//
// (expressed here on half-open intervals). The per-base sequential
// dependency of these steps is exactly the memory-latency bottleneck the
// paper attributes to software seeding, and the CPU baseline model in
// internal/cpu charges one dependent memory access per step.
package fmindex

import (
	"fmt"
	"math/bits"

	"casa/internal/dna"
	"casa/internal/hugemem"
	"casa/internal/suffixarray"
)

// Interval is a half-open range [Lo, Hi) of suffix-array rows. Width
// (Hi - Lo) is the number of occurrences of the associated pattern.
type Interval struct {
	Lo, Hi int32
}

// Width returns the number of rows (pattern occurrences).
func (iv Interval) Width() int { return int(iv.Hi - iv.Lo) }

// Empty reports whether the interval contains no rows.
func (iv Interval) Empty() bool { return iv.Hi <= iv.Lo }

// occBlock packs one 64-symbol BWT block into 32 bytes: the cumulative
// per-base counts before the block and both bit planes (bit i of p0/p1 is
// the low/high bit of the base at BWT position 64k+i). Interleaving counts
// with planes means one rank touches a single cache line instead of three
// separate arrays — the cache-line-aligned Occ layout BWA-MEM2 uses.
type occBlock struct {
	counts [4]int32 // occurrences of each base in bwt[0 : 64k)
	p0, p1 uint64
}

// FMIndex is a full-text index over a DNA sequence supporting O(1)
// backward extension and O(occ) location of matches.
type FMIndex struct {
	text dna.Sequence
	sa   []int32 // suffix array with sentinel row 0; len n+1
	n    int

	// occ[k] covers BWT positions [64k, 64k+64); the final entry carries
	// only the closing counts. The sentinel's position holds base code 0
	// (A); sentRow corrects rank(A, .) for it.
	occ     []occBlock
	sentRow int32
	c       [6]int32
}

// Build constructs the index over text. The sentinel is implicit; text is
// retained (not copied) for match verification and slicing.
func Build(text dna.Sequence) *FMIndex {
	f := &FMIndex{text: text, sa: suffixarray.Build(text), n: len(text)}
	if err := f.Derive(); err != nil {
		panic(err) // suffixarray.Build returns a permutation of 0..n
	}
	return f
}

// Derive checks that the suffix array is a permutation of 0..n, so a
// hostile one cannot make the index read out of bounds, and derives the
// occ planes, sentRow and the C table from it. It makes one pass over the
// suffix array: each 64-row block's two bit planes are assembled in
// registers and stored once, and the block's base counts come from
// popcounts of the planes (the sentinel row's placeholder A bits taken
// back out), not from one counter update per row. The permutation check
// keeps one bit per row, the only transient allocation. On error the
// index is left without tables.
func (f *FMIndex) Derive() error {
	text, sa, n := f.text, f.sa, f.n
	if len(sa) != n+1 {
		return fmt.Errorf("fmindex: suffix array has %d rows for %d bases (want %d)", len(sa), n, n+1)
	}
	nb := (n + 1 + 63) / 64
	seen := make([]uint64, nb)
	occ := hugemem.Advise(make([]occBlock, nb+1))
	var run [4]int32
	var sentRow int32
	for k := range nb {
		rows := sa[k*64 : min(k*64+64, n+1)]
		var p0, p1 uint64
		var sent int32
		for j, p := range rows {
			if p < 0 || int(p) > n {
				return fmt.Errorf("fmindex: suffix array row %d out of range [0, %d]", p, n)
			}
			w, bit := p>>6, uint64(1)<<uint(p&63)
			if seen[w]&bit != 0 {
				return fmt.Errorf("fmindex: duplicate suffix array row %d", p)
			}
			seen[w] |= bit
			if p == 0 {
				sentRow, sent = int32(k*64+j), 1 // sentinel precedes the first suffix
				continue
			}
			b := uint64(text[p-1])
			p0 |= (b & 1) << uint(j)
			p1 |= (b >> 1) << uint(j)
		}
		occ[k] = occBlock{counts: run, p0: p0, p1: p1}
		c := int32(bits.OnesCount64(p0 &^ p1))
		g := int32(bits.OnesCount64(p1 &^ p0))
		t := int32(bits.OnesCount64(p0 & p1))
		run[0] += int32(len(rows)) - sent - c - g - t
		run[1] += c
		run[2] += g
		run[3] += t
	}
	occ[nb].counts = run

	// C table: c[s] = number of symbols strictly smaller than s, over the
	// 5-symbol alphabet (0 = sentinel, 1..4 = bases). The BWT holds every
	// text base once, so its closing counts are the text's base counts.
	counts := [5]int32{1, run[0], run[1], run[2], run[3]}
	var sum int32
	for s := 0; s < 5; s++ {
		f.c[s] = sum
		sum += counts[s]
	}
	f.c[5] = sum
	f.occ, f.sentRow = occ, sentRow
	return nil
}

// Len returns the text length (without sentinel).
func (f *FMIndex) Len() int { return f.n }

// Text returns the indexed sequence (shared, not a copy).
func (f *FMIndex) Text() dna.Sequence { return f.text }

// HeapBytes estimates the index's memory footprint in bytes, used by the
// baseline models when reasoning about index sizes.
func (f *FMIndex) HeapBytes() int {
	return len(f.sa)*4 + len(f.occ)*32 + len(f.text)
}

// All returns the interval covering every suffix (the empty pattern).
func (f *FMIndex) All() Interval { return Interval{0, int32(f.n + 1)} }

// rank returns the number of occurrences of base b in bwt[0:i).
func (f *FMIndex) rank(b dna.Base, i int32) int32 {
	o := &f.occ[i>>6]
	r := o.counts[b]
	if rem := uint(i & 63); rem != 0 {
		p0, p1 := o.p0, o.p1
		if b&1 == 0 {
			p0 = ^p0
		}
		if b&2 == 0 {
			p1 = ^p1
		}
		r += int32(bits.OnesCount64(p0 & p1 & (1<<rem - 1)))
	}
	// The sentinel row carries placeholder base-0 bits; the per-block
	// counts already exclude it, so correct only when it falls inside the
	// popcounted tail [64*blk, i).
	if b == 0 && f.sentRow >= i&^63 && f.sentRow < i {
		r--
	}
	return r
}

// Rank is the exported scalar Occ query: the number of occurrences of
// base b in bwt[0:i). The batched RankBatch must agree with it query for
// query; the differential tests drive both against each other.
func (f *FMIndex) Rank(b dna.Base, i int32) int32 { return f.rank(b, i) }

// RankBatch resolves several independent Occ queries for the same base in
// one pass over the block tables: out[j] = Rank(b, idx[j]). The per-query
// table and plane lookups are issued from a single tight loop, so the
// dependent cache misses of independent queries overlap (memory-level
// parallelism) instead of serializing behind one another — the same trick
// BWA-MEM2 uses to batch k-mer lookups. out must have len(idx) capacity;
// the call performs no allocation.
func (f *FMIndex) RankBatch(b dna.Base, idx []int32, out []int32) {
	_ = out[:len(idx)]
	occ := f.occ
	sentRow := f.sentRow
	for j, i := range idx {
		o := &occ[i>>6]
		r := o.counts[b]
		if rem := uint(i & 63); rem != 0 {
			p0, p1 := o.p0, o.p1
			if b&1 == 0 {
				p0 = ^p0
			}
			if b&2 == 0 {
				p1 = ^p1
			}
			r += int32(bits.OnesCount64(p0 & p1 & (1<<rem - 1)))
		}
		if b == 0 && sentRow >= i&^63 && sentRow < i {
			r--
		}
		out[j] = r
	}
}

// ExtendLeft prepends base b to the pattern represented by iv, returning
// the interval for b·pattern. One call models one FM-index lookup step.
func (f *FMIndex) ExtendLeft(iv Interval, b dna.Base) Interval {
	sym := int32(b) + 1
	return Interval{
		Lo: f.c[sym] + f.rank(b, iv.Lo),
		Hi: f.c[sym] + f.rank(b, iv.Hi),
	}
}

// ExtendLeftMany performs one backward-extension step for each of several
// independent searches in a single pass: out[j] = ExtendLeft(ivs[j],
// bs[j]). Each search extends by its own base, so one call advances the
// left extensions of all of a pivot's LEPs (or of several reads) by one
// step, overlapping their dependent rank lookups the way RankBatch
// overlaps Occ queries. out must have len(ivs) capacity and bs must have
// len(ivs) entries; the call performs no allocation.
func (f *FMIndex) ExtendLeftMany(ivs []Interval, bs []dna.Base, out []Interval) {
	_ = bs[:len(ivs)]
	_ = out[:len(ivs)]
	for j, iv := range ivs {
		b := bs[j]
		sym := int32(b) + 1
		out[j] = Interval{
			Lo: f.c[sym] + f.rank(b, iv.Lo),
			Hi: f.c[sym] + f.rank(b, iv.Hi),
		}
	}
}

// Count returns the number of occurrences of pattern in the text.
func (f *FMIndex) Count(pattern dna.Sequence) int {
	iv := f.All()
	for i := len(pattern) - 1; i >= 0; i-- {
		iv = f.ExtendLeft(iv, pattern[i])
		if iv.Empty() {
			return 0
		}
	}
	return iv.Width()
}

// Find returns the interval for pattern (possibly empty).
func (f *FMIndex) Find(pattern dna.Sequence) Interval {
	iv := f.All()
	for i := len(pattern) - 1; i >= 0; i-- {
		iv = f.ExtendLeft(iv, pattern[i])
		if iv.Empty() {
			return iv
		}
	}
	return iv
}

// Locate returns the text positions for the rows of iv, up to max
// (max <= 0 means all). Positions are returned in suffix-array order.
func (f *FMIndex) Locate(iv Interval, max int) []int32 {
	w := iv.Width()
	if max > 0 && w > max {
		w = max
	}
	out := make([]int32, 0, w)
	for r := iv.Lo; r < iv.Lo+int32(w); r++ {
		out = append(out, f.sa[r])
	}
	return out
}

// SuffixAt exposes the suffix array entry for row r; used by seed-chaining
// code that needs direct row-to-position resolution.
func (f *FMIndex) SuffixAt(r int32) int32 { return f.sa[r] }

// BWTAt returns the BWT symbol at row r (0 = sentinel, 1..4 = base+1),
// for diagnostics and tests.
func (f *FMIndex) BWTAt(r int32) byte {
	if r == f.sentRow {
		return 0
	}
	o := f.occ[r>>6]
	b := byte(o.p0>>uint(r&63)&1) | byte(o.p1>>uint(r&63)&1)<<1
	return b + 1
}
