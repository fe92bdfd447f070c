package align

import "casa/internal/dna"

// Result is a scored alignment with its coordinates and CIGAR.
type Result struct {
	Score   int
	Cigar   Cigar
	QueryLo int // first aligned query index
	QueryHi int // one past the last aligned query index
	RefLo   int // first aligned reference index
	RefHi   int // one past the last aligned reference index
}

// Local computes the affine-gap Smith-Waterman local alignment of query
// against ref with full O(nm) dynamic programming and traceback. This is
// the golden reference for the banded cores.
func Local(query, ref dna.Sequence, sc Scoring) Result {
	n, m := len(query), len(ref)
	// H: best score ending at (i, j); E: gap in query (deletion run);
	// F: gap in ref (insertion run).
	H := mat(n+1, m+1)
	E := mat(n+1, m+1)
	F := mat(n+1, m+1)
	for j := 0; j <= m; j++ {
		E[0][j], F[0][j] = neg, neg
	}
	best, bi, bj := 0, 0, 0
	for i := 1; i <= n; i++ {
		E[i][0], F[i][0] = neg, neg
		for j := 1; j <= m; j++ {
			E[i][j] = maxInt(E[i][j-1]-sc.GapExtend, H[i][j-1]-sc.GapOpen-sc.GapExtend)
			F[i][j] = maxInt(F[i-1][j]-sc.GapExtend, H[i-1][j]-sc.GapOpen-sc.GapExtend)
			diag := H[i-1][j-1] + sc.sub(query[i-1], ref[j-1])
			h := maxInt(0, maxInt(diag, maxInt(E[i][j], F[i][j])))
			H[i][j] = h
			if h > best {
				best, bi, bj = h, i, j
			}
		}
	}
	// Traceback from the best cell to the first zero cell.
	var cg Cigar
	i, j := bi, bj
	for i > 0 && j > 0 && H[i][j] > 0 {
		switch {
		case H[i][j] == H[i-1][j-1]+sc.sub(query[i-1], ref[j-1]):
			cg = appendOp(cg, OpMatch, 1)
			i, j = i-1, j-1
		case H[i][j] == E[i][j]:
			// Walk the deletion run.
			for j > 0 && H[i][j] == E[i][j] && E[i][j] == E[i][j-1]-sc.GapExtend {
				cg = appendOp(cg, OpDelete, 1)
				j--
			}
			cg = appendOp(cg, OpDelete, 1)
			j--
		default:
			for i > 0 && H[i][j] == F[i][j] && F[i][j] == F[i-1][j]-sc.GapExtend {
				cg = appendOp(cg, OpInsert, 1)
				i--
			}
			cg = appendOp(cg, OpInsert, 1)
			i--
		}
	}
	cg = reverseCigar(cg)
	return Result{Score: best, Cigar: cg, QueryLo: i, QueryHi: bi, RefLo: j, RefHi: bj}
}

// BandedGlobal aligns query against ref end-to-end, restricting the DP to
// cells within band of the main diagonal — the banded Smith-Waterman
// (BSW) computation of the SeedEx cores. Returns ok=false when no path
// fits in the band (the hardware then defers to a wider band or the edit
// machines).
func BandedGlobal(query, ref dna.Sequence, band int, sc Scoring) (Result, bool) {
	n, m := len(query), len(ref)
	if band < 1 {
		band = 1
	}
	if d := m - n; d < 0 {
		if -d > band {
			return Result{}, false
		}
	} else if d > band {
		return Result{}, false
	}
	H := mat(n+1, m+1)
	E := mat(n+1, m+1)
	F := mat(n+1, m+1)
	for i := 0; i <= n; i++ {
		for j := 0; j <= m; j++ {
			H[i][j], E[i][j], F[i][j] = neg, neg, neg
		}
	}
	H[0][0] = 0
	for j := 1; j <= m && j <= band; j++ {
		H[0][j] = -sc.GapOpen - j*sc.GapExtend
		E[0][j] = H[0][j]
	}
	for i := 1; i <= n; i++ {
		lo := maxInt(1, i-band)
		hi := minInt(m, i+band)
		if i <= band {
			H[i][0] = -sc.GapOpen - i*sc.GapExtend
			F[i][0] = H[i][0]
		}
		for j := lo; j <= hi; j++ {
			E[i][j] = maxInt(E[i][j-1]-sc.GapExtend, H[i][j-1]-sc.GapOpen-sc.GapExtend)
			F[i][j] = maxInt(F[i-1][j]-sc.GapExtend, H[i-1][j]-sc.GapOpen-sc.GapExtend)
			diag := neg
			if H[i-1][j-1] > neg {
				diag = H[i-1][j-1] + sc.sub(query[i-1], ref[j-1])
			}
			H[i][j] = maxInt(diag, maxInt(E[i][j], F[i][j]))
		}
	}
	if H[n][m] <= neg/2 {
		return Result{}, false
	}
	// Traceback.
	var cg Cigar
	i, j := n, m
	for i > 0 || j > 0 {
		switch {
		case i > 0 && j > 0 && H[i][j] == H[i-1][j-1]+sc.sub(query[i-1], ref[j-1]):
			cg = appendOp(cg, OpMatch, 1)
			i, j = i-1, j-1
		case j > 0 && H[i][j] == E[i][j]:
			cg = appendOp(cg, OpDelete, 1)
			j--
		case i > 0 && H[i][j] == F[i][j]:
			cg = appendOp(cg, OpInsert, 1)
			i--
		case j > 0 && i == 0:
			cg = appendOp(cg, OpDelete, 1)
			j--
		default:
			cg = appendOp(cg, OpInsert, 1)
			i--
		}
	}
	cg = reverseCigar(cg)
	return Result{Score: H[n][m], Cigar: cg, QueryHi: n, RefHi: m}, true
}

// sub returns the substitution score for a pair of bases.
func (s Scoring) sub(a, b dna.Base) int {
	if a == b {
		return s.Match
	}
	return -s.Mismatch
}

func mat(n, m int) [][]int {
	backing := make([]int, n*m)
	rows := make([][]int, n)
	for i := range rows {
		rows[i] = backing[i*m : (i+1)*m]
	}
	return rows
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
