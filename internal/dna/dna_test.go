package dna

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBaseByteRoundTrip(t *testing.T) {
	for _, b := range []Base{A, C, G, T} {
		if got := BaseFromByte(b.Byte()); got != b {
			t.Errorf("BaseFromByte(%q) = %v, want %v", b.Byte(), got, b)
		}
	}
}

func TestBaseLowerCase(t *testing.T) {
	cases := map[byte]Base{'a': A, 'c': C, 'g': G, 't': T, 'u': T, 'U': T}
	for c, want := range cases {
		if got := BaseFromByte(c); got != want {
			t.Errorf("BaseFromByte(%q) = %v, want %v", c, got, want)
		}
	}
}

func TestComplement(t *testing.T) {
	pairs := map[Base]Base{A: T, C: G, G: C, T: A}
	for b, want := range pairs {
		if got := b.Complement(); got != want {
			t.Errorf("%v.Complement() = %v, want %v", b, got, want)
		}
		if got := b.Complement().Complement(); got != b {
			t.Errorf("double complement of %v = %v", b, got)
		}
	}
}

func TestAmbiguousBaseDeterministic(t *testing.T) {
	for _, c := range []byte{'N', 'n', 'R', 'Y', 'W', '-'} {
		b1 := BaseFromByte(c)
		b2 := BaseFromByte(c)
		if b1 != b2 {
			t.Errorf("BaseFromByte(%q) nondeterministic: %v vs %v", c, b1, b2)
		}
		if b1 > 3 {
			t.Errorf("BaseFromByte(%q) = %d out of range", c, b1)
		}
	}
}

func TestIsStandard(t *testing.T) {
	for _, c := range []byte{'A', 'c', 'G', 't', 'U'} {
		if !IsStandard(c) {
			t.Errorf("IsStandard(%q) = false", c)
		}
	}
	for _, c := range []byte{'N', 'X', ' ', '1'} {
		if IsStandard(c) {
			t.Errorf("IsStandard(%q) = true", c)
		}
	}
}

func TestFromStringAndBack(t *testing.T) {
	const s = "ACGTACGTTTGGCCAA"
	if got := FromString(s).String(); got != s {
		t.Errorf("round trip = %q, want %q", got, s)
	}
}

func TestReverseComplement(t *testing.T) {
	cases := []struct{ in, want string }{
		{"A", "T"},
		{"ACGT", "ACGT"}, // palindrome
		{"AACG", "CGTT"},
		{"TTTT", "AAAA"},
		{"GATTACA", "TGTAATC"},
	}
	for _, tc := range cases {
		if got := FromString(tc.in).ReverseComplement().String(); got != tc.want {
			t.Errorf("ReverseComplement(%s) = %s, want %s", tc.in, got, tc.want)
		}
	}
}

func TestReverseComplementInvolution(t *testing.T) {
	f := func(raw []byte) bool {
		s := make(Sequence, len(raw))
		for i, c := range raw {
			s[i] = Base(c & 3)
		}
		return s.ReverseComplement().ReverseComplement().Equal(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSequenceEqual(t *testing.T) {
	a := FromString("ACGT")
	if !a.Equal(a.Clone()) {
		t.Error("clone not equal")
	}
	if a.Equal(FromString("ACG")) {
		t.Error("different lengths reported equal")
	}
	if a.Equal(FromString("ACGA")) {
		t.Error("different content reported equal")
	}
}

func TestPackKmerLexOrder(t *testing.T) {
	// Numeric order of packed k-mers must equal lexicographic order of the
	// strings: the mini index table relies on this (§4.1 step 2: "sort
	// k-mers in lexicographical order").
	rng := rand.New(rand.NewSource(1))
	const k = 7
	for trial := 0; trial < 200; trial++ {
		a := randomSeq(rng, k)
		b := randomSeq(rng, k)
		pa, pb := PackKmer(a, 0, k), PackKmer(b, 0, k)
		sa, sb := a.String(), b.String()
		switch {
		case sa < sb && !(pa < pb):
			t.Fatalf("lex %s < %s but packed %d >= %d", sa, sb, pa, pb)
		case sa > sb && !(pa > pb):
			t.Fatalf("lex %s > %s but packed %d <= %d", sa, sb, pa, pb)
		case sa == sb && pa != pb:
			t.Fatalf("equal strings pack differently")
		}
	}
}

func TestKmerStringRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, k := range []int{1, 2, 9, 10, 19, 31} {
		s := randomSeq(rng, k)
		v := PackKmer(s, 0, k)
		if got := KmerString(v, k); got != s.String() {
			t.Errorf("k=%d: KmerString = %s, want %s", k, got, s)
		}
	}
}

func TestKmerBase(t *testing.T) {
	s := FromString("ACGTACG")
	v := PackKmer(s, 0, len(s))
	for j, want := range s {
		if got := KmerBase(v, len(s), j); got != want {
			t.Errorf("KmerBase(%d) = %v, want %v", j, got, want)
		}
	}
}

func TestPackKmerOffset(t *testing.T) {
	s := FromString("AACGTACGTT")
	if got, want := PackKmer(s, 2, 4), PackKmer(FromString("CGTA"), 0, 4); got != want {
		t.Errorf("PackKmer offset = %d, want %d", got, want)
	}
}

func TestPackKmerTooLongPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for k > MaxK")
		}
	}()
	PackKmer(make(Sequence, 40), 0, 32)
}

func TestNumKmers(t *testing.T) {
	if NumKmers(0) != 1 || NumKmers(1) != 4 || NumKmers(10) != 1048576 {
		t.Errorf("NumKmers wrong: %d %d %d", NumKmers(0), NumKmers(1), NumKmers(10))
	}
}

func TestNumKmersPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for k = 32")
		}
	}()
	NumKmers(32)
}

func TestPackedSeqRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 31, 32, 33, 100, 1000} {
		s := randomSeq(rng, n)
		p := Pack(s)
		if p.Len() != n {
			t.Fatalf("Len = %d, want %d", p.Len(), n)
		}
		for i := 0; i < n; i++ {
			if p.Base(i) != s[i] {
				t.Fatalf("n=%d: Base(%d) = %v, want %v", n, i, p.Base(i), s[i])
			}
		}
		if !p.Slice(0, n).Equal(s) {
			t.Fatalf("n=%d: Slice mismatch", n)
		}
	}
}

func TestPackedSeqKmerMatchesUnpacked(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	s := randomSeq(rng, 200)
	p := Pack(s)
	for _, k := range []int{1, 9, 10, 19} {
		for i := 0; i+k <= len(s); i += 13 {
			if got, want := p.Kmer(i, k), PackKmer(s, i, k); got != want {
				t.Fatalf("Kmer(%d,%d) = %d, want %d", i, k, got, want)
			}
		}
	}
}

func TestPackedSeqBytes(t *testing.T) {
	// 4 Mbases must pack to 1 MB: the paper's "1MB reference partition".
	p := Pack(make(Sequence, 4<<20))
	if got := p.Bytes(); got != 1<<20 {
		t.Errorf("4 Mbase partition packs to %d bytes, want %d", got, 1<<20)
	}
}

// TestPackedBytesRoundTrip pins the four-bases-per-byte layout shared by
// every persisted index: AppendPacked matches a base-at-a-time reference
// encoder and PackedSeq's little-endian words, and AppendUnpacked and
// ReadPacked invert it at every partial-byte length.
func TestPackedBytesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1<<16 + 3} {
		s := randomSeq(rng, n)
		want := make([]byte, PackedLen(n))
		for i, b := range s {
			want[i/4] |= byte(b) << uint(2*(i%4))
		}
		got := AppendPacked([]byte{0xAA}, s)
		if got[0] != 0xAA || !bytes.Equal(got[1:], want) {
			t.Fatalf("n=%d: AppendPacked = %x, want %x", n, got[1:], want)
		}
		words := Pack(s).words
		for i, b := range want {
			if w := byte(words[i/8] >> uint(8*(i%8))); w != b {
				t.Fatalf("n=%d: byte %d = %02x, PackedSeq word byte %02x", n, i, b, w)
			}
		}
		prefix := Sequence{T, G}
		if u := AppendUnpacked(prefix.Clone(), want, n); !u[:2].Equal(prefix) || !u[2:].Equal(s) {
			t.Fatalf("n=%d: AppendUnpacked does not invert AppendPacked", n)
		}
		r, err := ReadPacked(bytes.NewReader(want), n)
		if err != nil || !r.Equal(s) {
			t.Fatalf("n=%d: ReadPacked = %v, %v", n, len(r), err)
		}
		if n > 0 {
			if _, err := ReadPacked(bytes.NewReader(want[:len(want)-1]), n); err == nil {
				t.Fatalf("n=%d: ReadPacked accepted a truncated stream", n)
			}
		}
	}
}

func randomSeq(rng *rand.Rand, n int) Sequence {
	s := make(Sequence, n)
	for i := range s {
		s[i] = Base(rng.Intn(4))
	}
	return s
}
