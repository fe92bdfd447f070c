package align

import "casa/internal/dna"

// neg is the score of a cell no alignment path reaches (and of every
// cell outside the band): low enough that no in-band score gets near it,
// high enough that subtracting gap penalties from it cannot overflow.
const neg = -1 << 28

// Result is a scored alignment with its coordinates and CIGAR.
type Result struct {
	Score   int
	Cigar   Cigar
	QueryLo int // first aligned query index
	QueryHi int // one past the last aligned query index
	RefLo   int // first aligned reference index
	RefHi   int // one past the last aligned reference index
}

// sub returns the substitution score for a pair of bases.
func (s Scoring) sub(a, b dna.Base) int {
	if a == b {
		return s.Match
	}
	return -s.Mismatch
}

// BandedFit computes a fitting alignment: the whole query aligned against
// any window of ref (free leading and trailing reference bases), with the
// DP restricted to |j - i| <= band. This is the seed-extension shape: the
// read must align end-to-end while the reference window is padded by the
// band on both sides. ok is false when no in-band fit exists.
//
// BandedFit allocates fresh scratch on every call; callers fitting many
// reads keep a Fitter instead.
func BandedFit(query, ref dna.Sequence, band int, sc Scoring) (Result, bool) {
	var f Fitter
	return f.Fit(query, ref, band, sc)
}

// Fitter computes BandedFit alignments in scratch it keeps across calls:
// once warmed up to a shape, a Fit allocates only the returned CIGAR.
//
// Only the in-band cells are stored. Row i of the H and E matrices holds
// columns max(0, i-band) .. min(len(ref), i+band), so a row is at most
// min(2*band+1, len(ref)+1) cells and the scratch scales with the band,
// not with the window. Each stored H row is followed by a neg guard cell:
// the upper neighbour of the next row's last cell when that cell lies past
// this row's band. F (the gap-in-ref run) is needed only from the row
// above, so it is kept as a single row indexed by column. A Fitter is not
// safe for concurrent use: give each goroutine its own.
type Fitter struct {
	h, e   []int // in-band H and E cells; row i starts at i*stride
	f      []int // F of the last filled row, by column
	cg     Cigar // traceback scratch, copied out exactly sized
	stride int   // stored cells per row, guard included
	band   int
}

// Fit is BandedFit computed in the Fitter's scratch. The recurrences, the
// tie order of the free-end choice and the traceback are BandedFit's, so
// the Result is the same; only the returned CIGAR is newly allocated.
func (f *Fitter) Fit(query, ref dna.Sequence, band int, sc Scoring) (Result, bool) {
	n, m := len(query), len(ref)
	if band < 1 {
		band = 1
	}
	if n == 0 {
		return Result{}, false
	}
	f.reset(n, m, band)
	h, e, fc := f.h, f.e, f.f

	// Row 0: free start anywhere within the band-reachable prefix of ref
	// (the whole stored row); E and F start unreachable.
	for j := 0; j <= min(m, band); j++ {
		h[j], e[j] = 0, neg
	}
	h[min(m, band)+1] = neg // guard
	for i := 1; i <= n; i++ {
		lo := max(1, i-band)
		hi := min(m, i+band)
		cur := f.rowBase(i)      // cur+j indexes row i
		prev := f.rowBase(i - 1) // prev+j indexes row i-1
		// Column 0 is in band for the first band rows (a leading gap in
		// the reference) and is the left neighbour of the first cell
		// there; past them that neighbour is out of band.
		hl, el := neg, neg
		if i <= band {
			hl = -sc.GapOpen - i*sc.GapExtend
			h[cur], e[cur] = hl, neg
		}
		if lo > hi {
			continue
		}
		fillRow(h[cur+lo:cur+hi+1], e[cur+lo:cur+hi+1], h[prev+lo-1:prev+hi+1],
			fc[lo:hi+1], ref[lo-1:hi], query[i-1], hl, el, sc)
		h[cur+hi+1] = neg // guard
	}
	// Free end: best cell on the last query row.
	bestJ, bestScore := -1, neg
	last := f.rowBase(n)
	for j := max(0, n-band); j <= min(m, n+band); j++ {
		if h[last+j] > bestScore {
			bestScore, bestJ = h[last+j], j
		}
	}
	if bestJ < 0 || bestScore <= neg/2 {
		return Result{}, false
	}
	// Traceback to the first query row.
	cg := f.cg[:0]
	i, j := n, bestJ
	for i > 0 {
		hij := f.at(h, i, j)
		switch {
		case j > 0 && hij == f.at(h, i-1, j-1)+sc.sub(query[i-1], ref[j-1]) && f.at(h, i-1, j-1) > neg/2:
			cg = appendOp(cg, OpMatch, 1)
			i, j = i-1, j-1
		case j > 0 && hij == f.at(e, i, j):
			cg = appendOp(cg, OpDelete, 1)
			j--
		default:
			cg = appendOp(cg, OpInsert, 1)
			i--
		}
	}
	f.cg = reverseCigar(cg)
	out := make(Cigar, len(f.cg))
	copy(out, f.cg)
	return Result{Score: bestScore, Cigar: out, QueryHi: n, RefLo: j, RefHi: bestJ}, true
}

// fillRow computes one row's in-band cells: hc and ec receive H and E, hp
// holds the row above from the diagonal neighbour of hc[0] on (hp[k] is
// diagonal to hc[k], hp[k+1] above it, the guard when out of band), fr
// holds F of the row above and receives this row's, rr holds the reference
// bases of the cells and qb the query base of the row. hl and el are the H
// and E left of hc[0]. A leaf of its own so the loop's state stays in
// registers.
func fillRow(hc, ec, hp, fr []int, rr dna.Sequence, qb dna.Base, hl, el int, sc Scoring) {
	hp, ec, fr, rr = hp[:len(hc)+1], ec[:len(hc)], fr[:len(hc)], rr[:len(hc)]
	open, ext := sc.GapOpen+sc.GapExtend, sc.GapExtend
	for k := range hc {
		ev := max(el-ext, hl-open)
		fv := max(fr[k]-ext, hp[k+1]-open)
		diag := neg
		if hd := hp[k]; hd > neg/2 {
			diag = hd + sc.sub(qb, rr[k])
		}
		hv := max(diag, ev, fv)
		hc[k], ec[k], fr[k] = hv, ev, fv
		hl, el = hv, ev
	}
}

// reset sizes the scratch for an n x m fit, growing it only when a larger
// shape arrives. Every stored cell a fit reads is written first (guards
// included) except F, which is read one row behind and so starts
// unreachable.
func (f *Fitter) reset(n, m, band int) {
	f.band = band
	f.stride = min(2*band+1, m+1) + 1
	cells := (n + 1) * f.stride
	f.h = grow(f.h, cells)
	f.e = grow(f.e, cells)
	f.f = grow(f.f, m+1)
	for j := range f.f {
		f.f[j] = neg
	}
}

// rowBase returns the offset that, added to a column j of row i's band,
// indexes that cell in h or e.
func (f *Fitter) rowBase(i int) int {
	return i*f.stride - max(0, i-f.band)
}

// at reads cell (i, j), 0 <= j <= len(ref), of a stored matrix, or neg
// when it lies outside the band (as the full matrix holds there). Only
// the traceback needs the check; the fill stays in band by construction.
func (f *Fitter) at(mat []int, i, j int) int {
	if j < i-f.band || j > i+f.band {
		return neg
	}
	return mat[f.rowBase(i)+j]
}

// grow returns s resliced to n elements, reallocating only when its
// capacity is short.
func grow(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}
