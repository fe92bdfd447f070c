package fmindex

import "casa/internal/dna"

// Bidirectional pairs an FM-index over the text with one over the reversed
// text so that matches can be extended in both directions, the capability
// BWA-MEM2's bi-directional SMEM search needs (Fig 1(a)). Extending a match
// to the right in the original text is a left extension in the reversed
// text.
type Bidirectional struct {
	Fwd *FMIndex // index over text: supports left (backward) extension
	Rev *FMIndex // index over reverse(text): supports right (forward) extension
}

// BuildBidirectional constructs both indexes over text.
func BuildBidirectional(text dna.Sequence) *Bidirectional {
	rev := make(dna.Sequence, len(text))
	for i, b := range text {
		rev[len(text)-1-i] = b
	}
	return &Bidirectional{Fwd: Build(text), Rev: Build(rev)}
}

// Len returns the text length.
func (b *Bidirectional) Len() int { return b.Fwd.Len() }

// ForwardStep is one step of a forward search: the interval after matching
// one more base to the right, plus the running hit count.
type ForwardStep struct {
	End  int // inclusive end index in the query of the match so far
	Hits int // number of occurrences of query[start..End]
}

// ForwardSearchAppend matches query[start..] base by base to the right
// and appends, for each successfully matched prefix, the hit count to
// dst. It stops at the first base that yields zero hits or at the end of
// the query. The appended steps correspond to match ends start, start+1,
// ...; positions where Hits changes between consecutive steps are the
// paper's left extension points (LEPs). Hot paths reuse a per-worker step
// buffer (dst[:0]) across reads: once the buffer has grown to the longest
// match, the steady state allocates nothing.
//
// Once the interval narrows to a single occurrence it can only shrink to
// zero, so the remaining extension is resolved by comparing the text at
// that occurrence directly — a sequential scan instead of one dependent
// rank chain per base. The emitted steps (and therefore LEPs and modelled
// step counts) are identical to the all-rank search.
func (b *Bidirectional) ForwardSearchAppend(dst []ForwardStep, query dna.Sequence, start int) []ForwardStep {
	iv := b.Rev.All()
	for e := start; e < len(query); e++ {
		iv = b.Rev.ExtendLeft(iv, query[e])
		if iv.Empty() {
			break
		}
		dst = append(dst, ForwardStep{End: e, Hits: iv.Width()})
		if iv.Width() == 1 {
			// The matched segment reversed occupies rev[p:...]; matching
			// one more query base prepends it in the reversed text.
			rev := b.Rev.Text()
			p := int(b.Rev.SuffixAt(iv.Lo))
			for e+1 < len(query) && p > 0 && rev[p-1] == query[e+1] {
				e++
				p--
				dst = append(dst, ForwardStep{End: e, Hits: 1})
			}
			break
		}
	}
	return dst
}

// LongestMatchEndingAt returns the smallest start index x such that
// query[x..end] occurs in the text, with its hit count. ok is false when
// query[end] itself does not occur.
func (b *Bidirectional) LongestMatchEndingAt(query dna.Sequence, end int) (start, hits int, ok bool) {
	iv := b.Fwd.All()
	start, hits = end+1, 0
	for x := end; x >= 0; x-- {
		next := b.Fwd.ExtendLeft(iv, query[x])
		if next.Empty() {
			break
		}
		iv = next
		start, hits = x, iv.Width()
		if hits == 1 {
			// Unique occurrence: extending left can only keep this one
			// occurrence or fail, so compare the text at it directly.
			text := b.Fwd.Text()
			p := int(b.Fwd.SuffixAt(iv.Lo))
			for start > 0 && p > 0 && text[p-1] == query[start-1] {
				start--
				p--
			}
			break
		}
	}
	return start, hits, start <= end
}
