package fmindex

import (
	"math/rand"
	"testing"

	"casa/internal/dna"
)

// naiveCount counts occurrences of pattern in text by scanning.
func naiveCount(text, pattern dna.Sequence) int {
	if len(pattern) == 0 {
		return len(text) + 1 // matches every suffix row, incl. sentinel
	}
	n := 0
outer:
	for i := 0; i+len(pattern) <= len(text); i++ {
		for j, b := range pattern {
			if text[i+j] != b {
				continue outer
			}
		}
		n++
	}
	return n
}

func randSeq(rng *rand.Rand, n int) dna.Sequence {
	s := make(dna.Sequence, n)
	for i := range s {
		s[i] = dna.Base(rng.Intn(4))
	}
	return s
}

func TestCountPaperExample(t *testing.T) {
	// Fig 2: reference ATCTC, backward search of "TC" yields 2 hits.
	f := Build(dna.FromString("ATCTC"))
	if got := f.Count(dna.FromString("TC")); got != 2 {
		t.Errorf("Count(TC in ATCTC) = %d, want 2", got)
	}
	if got := f.Count(dna.FromString("ATC")); got != 1 {
		t.Errorf("Count(ATC) = %d, want 1", got)
	}
	if got := f.Count(dna.FromString("G")); got != 0 {
		t.Errorf("Count(G) = %d, want 0", got)
	}
}

func TestCountMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	text := randSeq(rng, 500)
	f := Build(text)
	for trial := 0; trial < 300; trial++ {
		plen := 1 + rng.Intn(12)
		var pattern dna.Sequence
		if rng.Intn(2) == 0 && plen <= len(text) {
			i := rng.Intn(len(text) - plen)
			pattern = text[i : i+plen].Clone() // guaranteed present
		} else {
			pattern = randSeq(rng, plen)
		}
		if got, want := f.Count(pattern), naiveCount(text, pattern); got != want {
			t.Fatalf("Count(%s) = %d, want %d", pattern, got, want)
		}
	}
}

func TestLocate(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	text := randSeq(rng, 300)
	f := Build(text)
	for trial := 0; trial < 100; trial++ {
		plen := 3 + rng.Intn(8)
		i := rng.Intn(len(text) - plen)
		pattern := text[i : i+plen]
		pos := f.Locate(f.Find(pattern), 0)
		if len(pos) != naiveCount(text, pattern) {
			t.Fatalf("Locate count %d != naive %d", len(pos), naiveCount(text, pattern))
		}
		for _, p := range pos {
			if !text[p : int(p)+plen].Equal(pattern) {
				t.Fatalf("Locate returned non-match at %d", p)
			}
		}
	}
}

func TestLocateMax(t *testing.T) {
	text := dna.FromString("ACACACACACAC")
	f := Build(text)
	pos := f.Locate(f.Find(dna.FromString("AC")), 3)
	if len(pos) != 3 {
		t.Errorf("Locate with max=3 returned %d positions", len(pos))
	}
}

func TestEmptyPattern(t *testing.T) {
	f := Build(dna.FromString("ACGT"))
	if got := f.Count(nil); got != 5 {
		t.Errorf("Count(empty) = %d, want 5 (all rows incl sentinel)", got)
	}
}

func TestIntervalWidthMonotone(t *testing.T) {
	// Extending a pattern can never increase its hit count.
	rng := rand.New(rand.NewSource(3))
	text := randSeq(rng, 400)
	f := Build(text)
	for trial := 0; trial < 50; trial++ {
		iv := f.All()
		prev := iv.Width()
		for step := 0; step < 20 && !iv.Empty(); step++ {
			iv = f.ExtendLeft(iv, dna.Base(rng.Intn(4)))
			if iv.Width() > prev {
				t.Fatal("interval grew on extension")
			}
			prev = iv.Width()
		}
	}
}

func TestForwardSearchAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	text := randSeq(rng, 400)
	bd := BuildBidirectional(text)
	for trial := 0; trial < 100; trial++ {
		q := randSeq(rng, 30)
		if rng.Intn(2) == 0 {
			i := rng.Intn(len(text) - 30)
			q = text[i : i+30].Clone()
		}
		start := rng.Intn(len(q))
		steps := bd.ForwardSearchAppend(nil, q, start)
		for _, st := range steps {
			if got, want := st.Hits, naiveCount(text, q[start:st.End+1]); got != want {
				t.Fatalf("ForwardSearchAppend hits at end %d = %d, want %d", st.End, got, want)
			}
		}
		// The step after the last must be a zero-hit extension.
		if len(steps) > 0 {
			last := steps[len(steps)-1].End
			if last+1 < len(q) {
				if naiveCount(text, q[start:last+2]) != 0 {
					t.Fatalf("ForwardSearchAppend stopped early at %d", last)
				}
			}
		} else if naiveCount(text, q[start:start+1]) != 0 {
			t.Fatalf("ForwardSearchAppend found nothing but base occurs")
		}
	}
}

func TestLongestMatchEndingAt(t *testing.T) {
	text := dna.FromString("ACGTACGTTTACGA")
	bd := BuildBidirectional(text)
	q := dna.FromString("CACGTTT")
	start, hits, ok := bd.LongestMatchEndingAt(q, len(q)-1)
	// ACGTTT occurs once; prepending the leading C fails.
	if !ok || start != 1 || hits != 1 {
		t.Errorf("LongestMatchEndingAt = (%d, %d, %v), want (1, 1, true)", start, hits, ok)
	}
}

func TestLongestMatchConsistency(t *testing.T) {
	// e(i), the forward search's last step, must agree with a naive scan.
	rng := rand.New(rand.NewSource(5))
	text := randSeq(rng, 600)
	bd := BuildBidirectional(text)
	for trial := 0; trial < 40; trial++ {
		q := randSeq(rng, 25)
		for i := range q {
			steps := bd.ForwardSearchAppend(nil, q, i)
			end, ok := -1, len(steps) > 0
			if ok {
				end = steps[len(steps)-1].End
			}
			// Naive: extend while the substring occurs.
			wantEnd, found := -1, false
			for e := i; e < len(q); e++ {
				if naiveCount(text, q[i:e+1]) > 0 {
					wantEnd, found = e, true
				} else {
					break
				}
			}
			if ok != found || (ok && end != wantEnd) {
				t.Fatalf("forward search from %d ends at (%d,%v), want (%d,%v)", i, end, ok, wantEnd, found)
			}
		}
	}
}

func TestBWTStructure(t *testing.T) {
	// The bit-plane BWT must equal the direct construction from the
	// suffix array: bwt[i] = text[sa[i]-1], sentinel at sa[i]==0.
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{1, 63, 64, 65, 200, 1000} {
		text := randSeq(rng, n)
		f := Build(text)
		sentSeen := false
		for r := int32(0); r <= int32(n); r++ {
			want := byte(0)
			if p := f.SuffixAt(r); p > 0 {
				want = byte(text[p-1]) + 1
			}
			if got := f.BWTAt(r); got != want {
				t.Fatalf("n=%d row %d: BWT %d, want %d", n, r, got, want)
			}
			if f.BWTAt(r) == 0 {
				if sentSeen {
					t.Fatalf("n=%d: two sentinel rows", n)
				}
				sentSeen = true
			}
		}
		if !sentSeen {
			t.Fatalf("n=%d: sentinel row missing", n)
		}
		// rank at every boundary must match a direct scan.
		for _, b := range []dna.Base{0, 1, 2, 3} {
			cnt := int32(0)
			for i := int32(0); i <= int32(n+1); i++ {
				if got := f.rank(b, i); got != cnt {
					t.Fatalf("n=%d rank(%d,%d) = %d, want %d", n, b, i, got, cnt)
				}
				if i <= int32(n) && f.BWTAt(i) == byte(b)+1 {
					cnt++
				}
			}
		}
	}
}

func TestHeapBytesPositive(t *testing.T) {
	f := Build(dna.FromString("ACGTACGT"))
	if f.HeapBytes() <= 0 {
		t.Error("HeapBytes must be positive")
	}
}

func BenchmarkExtendLeft(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	text := randSeq(rng, 1<<20)
	f := Build(text)
	q := randSeq(rng, 101)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		iv := f.All()
		for j := len(q) - 1; j >= 0 && !iv.Empty(); j-- {
			iv = f.ExtendLeft(iv, q[j])
		}
	}
}
