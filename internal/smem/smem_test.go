package smem

import (
	"math/rand"
	"testing"

	"casa/internal/dna"
)

func randSeq(rng *rand.Rand, n int) dna.Sequence {
	s := make(dna.Sequence, n)
	for i := range s {
		s[i] = dna.Base(rng.Intn(4))
	}
	return s
}

// plantedRead copies a reference window and sprinkles mutations so that
// reads have realistic SMEM structure (long matches broken by mismatches).
func plantedRead(rng *rand.Rand, ref dna.Sequence, length, mutations int) dna.Sequence {
	start := rng.Intn(len(ref) - length)
	read := ref[start : start+length].Clone()
	for m := 0; m < mutations; m++ {
		i := rng.Intn(length)
		read[i] = dna.Base(rng.Intn(4))
	}
	return read
}

func TestMatchBasics(t *testing.T) {
	m := Match{Start: 3, End: 10, Hits: 2}
	if m.Len() != 8 {
		t.Errorf("Len = %d, want 8", m.Len())
	}
	if !m.Contains(Match{Start: 4, End: 9}) {
		t.Error("Contains failed on strict sub-interval")
	}
	if !m.Contains(m) {
		t.Error("Contains failed on itself")
	}
	if m.Contains(Match{Start: 2, End: 9}) {
		t.Error("Contains accepted left overhang")
	}
	if m.String() == "" {
		t.Error("empty String")
	}
}

func TestFilterMinLen(t *testing.T) {
	ms := []Match{{0, 5, 1}, {0, 18, 1}, {2, 30, 1}}
	got := FilterMinLen(ms, 19)
	if len(got) != 2 {
		t.Fatalf("FilterMinLen kept %d, want 2", len(got))
	}
	if got[0].End != 18 || got[1].End != 30 {
		t.Errorf("FilterMinLen kept wrong matches: %v", got)
	}
}

func TestBruteForceFig1Example(t *testing.T) {
	// Construct a case shaped like Fig 1: a read with two SMEMs and a MEM
	// fully contained in one of them.
	ref := dna.FromString("AACATTGTCACTTTCATAACGGGGGGGG")
	read := dna.FromString("GGCATTGTCATCAT")
	bf := BruteForce{Ref: ref}
	smems := bf.FindSMEMs(read, 4)
	// CATTGTCA occurs at ref[2..9] => read[2..9] matches; shorter matches
	// contained in it must not be reported.
	for _, m := range smems {
		for _, o := range smems {
			if m != o && o.Contains(m) {
				t.Errorf("SMEM %v contained in %v", m, o)
			}
		}
	}
	found := false
	for _, m := range smems {
		if m.Start == 2 && m.End == 9 {
			found = true
		}
	}
	if !found {
		t.Errorf("expected SMEM [2,9], got %v", smems)
	}
}

func TestBruteForceNoMatch(t *testing.T) {
	bf := BruteForce{Ref: dna.FromString("AAAAAAAA")}
	if got := bf.FindSMEMs(dna.FromString("CCCC"), 1); len(got) != 0 {
		t.Errorf("expected no SMEMs, got %v", got)
	}
}

func TestBruteForceWholeReadMatch(t *testing.T) {
	ref := dna.FromString("TTTACGTACGTACGAAA")
	read := dna.FromString("ACGTACGTACG")
	bf := BruteForce{Ref: ref}
	smems := bf.FindSMEMs(read, 5)
	if len(smems) != 1 || smems[0].Start != 0 || smems[0].End != len(read)-1 {
		t.Errorf("whole-read SMEM wrong: %v", smems)
	}
	if smems[0].Hits != 1 {
		t.Errorf("hits = %d, want 1", smems[0].Hits)
	}
}

func TestBruteForceMEMsAreMaximal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ref := randSeq(rng, 400)
	read := plantedRead(rng, ref, 40, 3)
	bf := BruteForce{Ref: ref}
	for _, m := range bf.FindMEMs(read) {
		if !bf.occurs(read, m.Start, m.End) {
			t.Fatalf("MEM %v does not occur", m)
		}
		if m.Start > 0 && bf.occurs(read, m.Start-1, m.End) {
			t.Fatalf("MEM %v extendable left", m)
		}
		if m.End < len(read)-1 && bf.occurs(read, m.Start, m.End+1) {
			t.Fatalf("MEM %v extendable right", m)
		}
	}
}

func TestFindersAgreeOnRandomInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 25; trial++ {
		ref := randSeq(rng, 300+rng.Intn(500))
		bi := NewBidirectional(ref)
		bf := BruteForce{Ref: ref}
		for r := 0; r < 8; r++ {
			var read dna.Sequence
			if r%2 == 0 {
				read = plantedRead(rng, ref, 50+rng.Intn(50), rng.Intn(5))
			} else {
				read = randSeq(rng, 30+rng.Intn(70))
			}
			for _, minLen := range []int{1, 10, 19} {
				want := bf.FindSMEMs(read, minLen)
				gotBi := bi.FindSMEMs(read, minLen)
				if !Equal(want, gotBi) {
					t.Fatalf("trial %d minLen %d: bidirectional\n got %v\nwant %v\nread %s\nref %s",
						trial, minLen, gotBi, want, read, ref)
				}
			}
		}
	}
}

func TestFindersAgreeOnRepetitiveReference(t *testing.T) {
	// Tandem repeats produce many-hit k-mers and contained MEMs, the hard
	// case for containment filtering.
	rng := rand.New(rand.NewSource(3))
	unit := randSeq(rng, 23)
	var ref dna.Sequence
	for i := 0; i < 20; i++ {
		ref = append(ref, unit...)
		if i%3 == 0 {
			ref = append(ref, randSeq(rng, 11)...)
		}
	}
	bi := NewBidirectional(ref)
	bf := BruteForce{Ref: ref}
	for r := 0; r < 10; r++ {
		read := plantedRead(rng, ref, 60, 2+rng.Intn(4))
		want := bf.FindSMEMs(read, 10)
		if got := bi.FindSMEMs(read, 10); !Equal(want, got) {
			t.Fatalf("bidirectional: got %v want %v", got, want)
		}
	}
}

func TestSMEMsNeverNested(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ref := randSeq(rng, 1000)
	bi := NewBidirectional(ref)
	for r := 0; r < 30; r++ {
		read := plantedRead(rng, ref, 101, rng.Intn(6))
		smems := bi.FindSMEMs(read, 1)
		for i, m := range smems {
			for j, o := range smems {
				if i != j && o.Contains(m) {
					t.Fatalf("nested SMEMs %v in %v", m, o)
				}
			}
		}
		// Starts and ends must both be strictly increasing.
		for i := 1; i < len(smems); i++ {
			if smems[i].Start <= smems[i-1].Start || smems[i].End <= smems[i-1].End {
				t.Fatalf("SMEMs not strictly increasing: %v", smems)
			}
		}
	}
}

func TestBidirectionalStepsCounted(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ref := randSeq(rng, 500)
	bi := NewBidirectional(ref)
	read := plantedRead(rng, ref, 80, 2)
	bi.FindSMEMs(read, 19)
	if bi.Steps <= 0 {
		t.Error("bidirectional finder must count FM-index steps")
	}
}

func TestEqualAndSameIntervals(t *testing.T) {
	a := []Match{{0, 10, 1}, {5, 30, 2}}
	b := []Match{{0, 10, 1}, {5, 30, 2}}
	c := []Match{{0, 10, 9}, {5, 30, 2}}
	if !Equal(a, b) || Equal(a, c) {
		t.Error("Equal misbehaves")
	}
	if !SameIntervals(a, c) {
		t.Error("SameIntervals must ignore hits")
	}
	if SameIntervals(a, a[:1]) {
		t.Error("SameIntervals must respect length")
	}
}

func TestSortCanonical(t *testing.T) {
	ms := []Match{{5, 9, 1}, {0, 3, 1}, {5, 7, 1}}
	Sort(ms)
	if ms[0].Start != 0 || ms[1] != (Match{5, 7, 1}) || ms[2] != (Match{5, 9, 1}) {
		t.Errorf("Sort order wrong: %v", ms)
	}
}
