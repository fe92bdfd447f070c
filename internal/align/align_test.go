package align

import (
	"math/rand"
	"testing"
	"testing/quick"

	"casa/internal/dna"
)

func randSeq(rng *rand.Rand, n int) dna.Sequence {
	s := make(dna.Sequence, n)
	for i := range s {
		s[i] = dna.Base(rng.Intn(4))
	}
	return s
}

func TestScoringValidate(t *testing.T) {
	if err := BWAMEM2().Validate(); err != nil {
		t.Error(err)
	}
	if (Scoring{Match: 0, Mismatch: 4, GapOpen: 6, GapExtend: 1}).Validate() == nil {
		t.Error("zero match score accepted")
	}
}

func TestCigarString(t *testing.T) {
	c := Cigar{{OpMatch, 10}, {OpInsert, 2}, {OpMatch, 5}, {OpDelete, 1}}
	if got := c.String(); got != "10M2I5M1D" {
		t.Errorf("String = %q", got)
	}
	if c.QueryLen() != 17 {
		t.Errorf("QueryLen = %d, want 17", c.QueryLen())
	}
	if c.RefLen() != 16 {
		t.Errorf("RefLen = %d, want 16", c.RefLen())
	}
}

func TestAppendOpMerges(t *testing.T) {
	var c Cigar
	c = appendOp(c, OpMatch, 3)
	c = appendOp(c, OpMatch, 2)
	c = appendOp(c, OpInsert, 1)
	c = appendOp(c, OpInsert, 0) // no-op
	if len(c) != 2 || c[0].Len != 5 || c[1].Len != 1 {
		t.Errorf("appendOp = %v", c)
	}
}

func TestBandedFitExactInsideWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	sc := BWAMEM2()
	ref := randSeq(rng, 80)
	q := ref[20:60].Clone()
	r, ok := BandedFit(q, ref[12:70], 20, sc)
	if !ok {
		t.Fatal("fit rejected")
	}
	if r.Score != 40 || r.Cigar.String() != "40M" {
		t.Errorf("fit = %+v (%s)", r.Score, r.Cigar)
	}
	if r.RefLo != 8 || r.RefHi != 48 {
		t.Errorf("fit window [%d,%d), want [8,48)", r.RefLo, r.RefHi)
	}
}

func TestBandedFitNoFreeEndPenalty(t *testing.T) {
	// Unaligned window flanks must not cost anything (the bug a global
	// aligner would have here).
	sc := BWAMEM2()
	q := dna.FromString("ACGTACGT")
	window := dna.FromString("TTTTACGTACGTTTTT")
	r, ok := BandedFit(q, window, 10, sc)
	if !ok || r.Score != 8 {
		t.Errorf("fit score = %d ok=%v, want 8", r.Score, ok)
	}
}

func TestBandedFitQuerySpansFully(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	sc := BWAMEM2()
	for trial := 0; trial < 30; trial++ {
		ref := randSeq(rng, 120)
		q := ref[30:80].Clone()
		for i := 0; i < rng.Intn(4); i++ {
			q[rng.Intn(len(q))] = dna.Base(rng.Intn(4))
		}
		r, ok := BandedFit(q, ref[22:90], 18, sc)
		if !ok {
			t.Fatal("fit rejected")
		}
		if r.Cigar.QueryLen() != len(q) {
			t.Fatalf("query not fully aligned: %s", r.Cigar)
		}
		if r.Cigar.RefLen() != r.RefHi-r.RefLo {
			t.Fatalf("ref window inconsistent: %s vs [%d,%d)", r.Cigar, r.RefLo, r.RefHi)
		}
	}
}

func TestBandedFitEmptyQuery(t *testing.T) {
	if _, ok := BandedFit(nil, dna.FromString("ACGT"), 4, BWAMEM2()); ok {
		t.Error("empty query accepted")
	}
}

func TestEditDistanceBasics(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"A", "", 1},
		{"", "ACGT", 4},
		{"ACGT", "ACGT", 0},
		{"ACGT", "ACCT", 1},
		{"ACGT", "AGT", 1},
		{"ACGT", "TGCA", 4},
		{"AAAA", "TTTT", 4},
	}
	for _, c := range cases {
		got := EditDistance(dna.FromString(c.a), dna.FromString(c.b))
		if got != c.want {
			t.Errorf("EditDistance(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestEditDistanceMatchesDP(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		a := randSeq(rng, rng.Intn(150))
		b := a.Clone()
		// Derive b from a with random edits so distances vary.
		for i := 0; i < rng.Intn(10); i++ {
			switch rng.Intn(3) {
			case 0:
				if len(b) > 0 {
					b[rng.Intn(len(b))] = dna.Base(rng.Intn(4))
				}
			case 1:
				if len(b) > 1 {
					p := rng.Intn(len(b))
					b = append(b[:p], b[p+1:]...)
				}
			default:
				p := rng.Intn(len(b) + 1)
				b = append(b[:p], append(dna.Sequence{dna.Base(rng.Intn(4))}, b[p:]...)...)
			}
		}
		if got, want := EditDistance(a, b), EditDistanceDP(a, b); got != want {
			t.Fatalf("EditDistance = %d, DP = %d\na=%s\nb=%s", got, want, a, b)
		}
	}
}

func TestEditDistanceCrossesBlockBoundary(t *testing.T) {
	// Patterns of length 63, 64, 65, 128, 129 hit every block-edge case.
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{63, 64, 65, 127, 128, 129} {
		a := randSeq(rng, n)
		b := a.Clone()
		b[n/2] ^= 1
		if got := EditDistance(a, b); got != 1 {
			t.Errorf("n=%d: distance = %d, want 1", n, got)
		}
		c := randSeq(rng, n+30)
		if got, want := EditDistance(a, c), EditDistanceDP(a, c); got != want {
			t.Errorf("n=%d: blocked %d != DP %d", n, got, want)
		}
	}
}

func TestEditDistanceSymmetric(t *testing.T) {
	f := func(raw1, raw2 []byte) bool {
		if len(raw1) > 200 {
			raw1 = raw1[:200]
		}
		if len(raw2) > 200 {
			raw2 = raw2[:200]
		}
		a := make(dna.Sequence, len(raw1))
		for i, c := range raw1 {
			a[i] = dna.Base(c & 3)
		}
		b := make(dna.Sequence, len(raw2))
		for i, c := range raw2 {
			b[i] = dna.Base(c & 3)
		}
		return EditDistance(a, b) == EditDistance(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkEditDistanceMyers101(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	x, y := randSeq(rng, 101), randSeq(rng, 101)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EditDistance(x, y)
	}
}

func BenchmarkEditDistanceDP101(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	x, y := randSeq(rng, 101), randSeq(rng, 101)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EditDistanceDP(x, y)
	}
}
