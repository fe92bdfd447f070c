package align

import "casa/internal/dna"

// EditDistance computes the Levenshtein distance between a and b with the
// blocked Myers bit-parallel algorithm (the computation of the SeedEx
// "edit machines"): O(ceil(|a|/64) x |b|) word operations instead of the
// O(|a| x |b|) cells of plain dynamic programming.
func EditDistance(a, b dna.Sequence) int {
	if len(a) == 0 {
		return len(b)
	}
	if len(b) == 0 {
		return len(a)
	}
	// Use the shorter sequence as the pattern (fewer blocks).
	if len(a) > len(b) {
		a, b = b, a
	}
	m := len(a)
	blocks := (m + 63) / 64

	// PEq[k][c]: bit i of block k set iff a[k*64+i] == c.
	var peq [][dna.NumBases]uint64
	peq = make([][dna.NumBases]uint64, blocks)
	for i, c := range a {
		peq[i/64][c] |= 1 << uint(i%64)
	}

	pv := make([]uint64, blocks) // vertical positive deltas (+1)
	mv := make([]uint64, blocks) // vertical negative deltas (-1)
	for k := range pv {
		pv[k] = ^uint64(0)
	}
	score := m
	lastBit := uint((m - 1) % 64)

	for _, c := range b {
		hin := 1 // global alignment: the top boundary row increases by 1
		for k := 0; k < blocks; k++ {
			eq := peq[k][c]
			xv := eq | mv[k]
			if hin < 0 {
				eq |= 1
			}
			xh := (((eq & pv[k]) + pv[k]) ^ pv[k]) | eq
			ph := mv[k] | ^(xh | pv[k])
			mh := pv[k] & xh

			if k == blocks-1 {
				// Horizontal delta at the true last pattern row.
				switch {
				case ph>>lastBit&1 == 1:
					score++
				case mh>>lastBit&1 == 1:
					score--
				}
			}

			hout := 0
			if ph>>63&1 == 1 {
				hout = 1
			} else if mh>>63&1 == 1 {
				hout = -1
			}
			ph <<= 1
			mh <<= 1
			switch {
			case hin < 0:
				mh |= 1
			case hin > 0:
				ph |= 1
			}
			pv[k] = mh | ^(xv | ph)
			mv[k] = ph & xv
			hin = hout
		}
	}
	return score
}

// EditDistanceDP is the plain dynamic-programming Levenshtein distance,
// kept as the golden reference for EditDistance and as the fallback shape
// the edit machines are verified against.
func EditDistanceDP(a, b dna.Sequence) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j-1]+cost, min(prev[j]+1, cur[j-1]+1))
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}
