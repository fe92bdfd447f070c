package dna

import (
	"bytes"
	"testing"
)

// FuzzDNARoundTrip checks the 2-bit packing layer and the strand algebra
// on arbitrary byte strings: Pack/Slice and Pack/Base round-trip exactly,
// PackKmer agrees with PackedSeq.Kmer, reverse-complement is an
// involution, and String/FromString round-trips standard bases.
func FuzzDNARoundTrip(f *testing.F) {
	f.Add([]byte("ACGT"))
	f.Add([]byte("TTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTT"))
	f.Add([]byte("ACGTNacgtnRYKM-\x00\xff"))
	f.Add([]byte(""))
	f.Add([]byte("GATTACAGATTACAGATTACAGATTACAGATTACA"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		seq := make(Sequence, len(raw))
		for i, c := range raw {
			seq[i] = Base(c & 3)
		}

		p := Pack(seq)
		if p.Len() != len(seq) {
			t.Fatalf("Pack.Len = %d, want %d", p.Len(), len(seq))
		}
		if got := p.Slice(0, len(seq)); !got.Equal(seq) {
			t.Fatalf("Pack/Slice round-trip: got %s want %s", got, seq)
		}
		for i := range seq {
			if p.Base(i) != seq[i] {
				t.Fatalf("Pack.Base(%d) = %v, want %v", i, p.Base(i), seq[i])
			}
		}
		for k := 1; k <= 31 && k <= len(seq); k *= 2 {
			for i := 0; i+k <= len(seq); i++ {
				if p.Kmer(i, k) != PackKmer(seq, i, k) {
					t.Fatalf("Kmer(%d, %d) disagrees with PackKmer", i, k)
				}
			}
		}

		rc := seq.ReverseComplement()
		if len(rc) != len(seq) {
			t.Fatalf("rc length %d, want %d", len(rc), len(seq))
		}
		if rc2 := rc.ReverseComplement(); !rc2.Equal(seq) {
			t.Fatalf("reverse-complement not an involution: %s -> %s", seq, rc2)
		}
		for i, b := range seq {
			if rc[len(seq)-1-i] != b.Complement() {
				t.Fatalf("rc[%d] != complement of seq[%d]", len(seq)-1-i, i)
			}
		}

		if got := FromString(seq.String()); !got.Equal(seq) {
			t.Fatalf("String/FromString round-trip: got %s want %s", got, seq)
		}
		if !bytes.Equal([]byte(seq.String()), []byte(rc.ReverseComplement().String())) {
			t.Fatalf("string of double-rc differs")
		}
	})
}

// FuzzMatchLen checks the word-at-a-time MatchLen against the byte loop.
// The seeds cover every length from 0 to 17, unequal lengths, and a
// mismatch in each of the eight byte lanes of the first and second word.
func FuzzMatchLen(f *testing.F) {
	same := []byte("GATTACAGATTACAGAT")
	for n := 0; n <= len(same); n++ {
		f.Add(same[:n], same[:n])
	}
	f.Add(same, same[:11])
	f.Add(same[:3], same)
	for lane := 0; lane < 16; lane++ {
		b := bytes.Clone(same)
		b[lane] ^= 1
		f.Add(same, b)
	}
	f.Fuzz(func(t *testing.T, rawA, rawB []byte) {
		a, b := make(Sequence, len(rawA)), make(Sequence, len(rawB))
		for i, c := range rawA {
			a[i] = Base(c & 3)
		}
		for i, c := range rawB {
			b[i] = Base(c & 3)
		}
		want := 0
		for want < len(a) && want < len(b) && a[want] == b[want] {
			want++
		}
		if got := MatchLen(a, b); got != want {
			t.Fatalf("MatchLen(%s, %s) = %d, want %d", a, b, got, want)
		}
		if got := MatchLen(b, a); got != want {
			t.Fatalf("MatchLen(%s, %s) = %d, want %d", b, a, got, want)
		}
	})
}
