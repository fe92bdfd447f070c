// Package dna provides the 2-bit nucleotide encoding used throughout the
// CASA reproduction: base codes, packed sequences, k-mer packing, and
// reverse complements.
//
// Bases are encoded as A=0, C=1, G=2, T=3, matching the ordering used by
// BWA-MEM2 and the FM-index packages. Ambiguous bases (N and the other
// IUPAC codes) are replaced with a deterministic standard nucleotide during
// parsing, mirroring the paper's evaluation method ("We replaced all the N
// bases in the reference genome and reads with one of the standard
// nucleotides", §6).
package dna

import (
	"fmt"
	"io"
	"math/bits"
	"slices"
	"strings"

	"casa/internal/hugemem"
)

// Base is a 2-bit nucleotide code: A=0, C=1, G=2, T=3.
type Base uint8

// The four standard nucleotides.
const (
	A Base = 0
	C Base = 1
	G Base = 2
	T Base = 3
)

// NumBases is the alphabet size.
const NumBases = 4

// letters maps base codes to their ASCII letters.
var letters = [NumBases]byte{'A', 'C', 'G', 'T'}

// Byte returns the upper-case ASCII letter for b.
func (b Base) Byte() byte { return letters[b&3] }

// String returns the single-letter representation of b.
func (b Base) String() string { return string(letters[b&3]) }

// Complement returns the Watson-Crick complement (A<->T, C<->G).
// In the 2-bit code this is simply the bitwise NOT of the low two bits.
func (b Base) Complement() Base { return b ^ 3 }

// codeTable maps ASCII to base codes; 0xFF marks non-ACGT characters.
var codeTable = func() [256]byte {
	var t [256]byte
	for i := range t {
		t[i] = 0xFF
	}
	set := func(c byte, b Base) {
		t[c] = byte(b)
		t[c|0x20] = byte(b) // lower case
	}
	set('A', A)
	set('C', C)
	set('G', G)
	set('T', T)
	set('U', T) // RNA uracil reads as T
	return t
}()

// BaseFromByte converts an ASCII letter to a Base. Ambiguous IUPAC codes
// (N, R, Y, ...) are replaced deterministically: the replacement is derived
// from the character value so the same input always yields the same
// sequence, as in the paper's N-base replacement.
func BaseFromByte(c byte) Base {
	if b := codeTable[c]; b != 0xFF {
		return Base(b)
	}
	return Base(c & 3)
}

// IsStandard reports whether c is one of A, C, G, T (either case) or U/u.
func IsStandard(c byte) bool { return codeTable[c] != 0xFF }

// Sequence is an unpacked DNA sequence, one Base per element. It is the
// working representation for reads and small references; PackedSeq is used
// where the 2-bit density matters (CAM contents, FM-index text).
type Sequence []Base

// FromString builds a Sequence from an ASCII string, replacing ambiguous
// characters per BaseFromByte.
func FromString(s string) Sequence {
	seq := make(Sequence, len(s))
	for i := 0; i < len(s); i++ {
		seq[i] = BaseFromByte(s[i])
	}
	return seq
}

// String renders the sequence as upper-case ASCII.
func (s Sequence) String() string {
	var sb strings.Builder
	sb.Grow(len(s))
	for _, b := range s {
		sb.WriteByte(b.Byte())
	}
	return sb.String()
}

// Clone returns a copy of s.
func (s Sequence) Clone() Sequence {
	c := make(Sequence, len(s))
	copy(c, s)
	return c
}

// ReverseComplement returns the reverse complement of s as a new Sequence.
// Read aligners seed both the forward read and its reverse complement
// ("three reads (together with the reverse strands) are sent to the
// pre-seeding filter", §4.1).
func (s Sequence) ReverseComplement() Sequence {
	return s.AppendReverseComplement(nil)
}

// AppendReverseComplement appends the reverse complement of s to dst and
// returns the extended slice. Hot paths that seed both strands per read
// pass a reusable buffer (dst[:0]) so the steady state allocates nothing.
func (s Sequence) AppendReverseComplement(dst Sequence) Sequence {
	base := len(dst)
	dst = append(dst, s...)
	rc := dst[base:]
	for i, j := 0, len(rc)-1; i < j; i, j = i+1, j-1 {
		rc[i], rc[j] = rc[j]^3, rc[i]^3
	}
	if len(rc)%2 == 1 {
		rc[len(rc)/2] ^= 3
	}
	return dst
}

// Equal reports whether two sequences are identical.
func (s Sequence) Equal(t Sequence) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// MatchLen returns the length of the common prefix of a and b. It compares
// eight bases per step: the XOR of two 64-bit loads is zero while the
// words agree, and otherwise its lowest set bit names the first differing
// byte lane. The tail shorter than a word finishes a base at a time.
func MatchLen(a, b Sequence) int {
	n := min(len(a), len(b))
	i := 0
	for ; i+8 <= n; i += 8 {
		if x := load8(a[i:i+8:i+8]) ^ load8(b[i:i+8:i+8]); x != 0 {
			return i + bits.TrailingZeros64(x)>>3
		}
	}
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// load8 packs s[0..7] little-endian into one word; the compiler merges the
// byte loads into a single 64-bit load.
func load8(s Sequence) uint64 {
	_ = s[7]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

// Kmer is a packed k-mer: 2 bits per base, the first base of the k-mer in
// the highest-order occupied bits so that lexicographic order of the string
// equals numeric order of the Kmer (for a fixed k). Supports k <= 31.
type Kmer uint64

// MaxK is the largest k-mer length representable by Kmer.
const MaxK = 31

// PackKmer packs s[i:i+k] into a Kmer. It panics if k > MaxK or the slice
// is too short; callers validate lengths at API boundaries.
func PackKmer(s Sequence, i, k int) Kmer {
	if k > MaxK {
		panic(fmt.Sprintf("dna: k=%d exceeds MaxK=%d", k, MaxK))
	}
	var v Kmer
	for _, b := range s[i : i+k] {
		v = v<<2 | Kmer(b)
	}
	return v
}

// KmerString unpacks a packed k-mer of length k back to ASCII,
// for diagnostics and table dumps.
func KmerString(v Kmer, k int) string {
	buf := make([]byte, k)
	for i := k - 1; i >= 0; i-- {
		buf[i] = Base(v & 3).Byte()
		v >>= 2
	}
	return string(buf)
}

// KmerBase returns base j (0-based from the left) of a packed k-mer of
// length k.
func KmerBase(v Kmer, k, j int) Base {
	return Base(v >> (2 * uint(k-1-j)) & 3)
}

// NumKmers returns 4^k, the number of distinct k-mers, as an int.
// It panics if the count would overflow int.
func NumKmers(k int) int {
	if k < 0 || k > 31 {
		panic(fmt.Sprintf("dna: invalid k=%d", k))
	}
	return 1 << (2 * uint(k))
}

// PackedSeq is a 2-bit-packed DNA sequence, 32 bases per uint64 word.
// It is the dense storage used for reference partitions: a "1 MB reference
// partition" in the paper is 4 Mbases at 2 bits per base.
type PackedSeq struct {
	words []uint64
	n     int
}

// Pack converts an unpacked Sequence into a PackedSeq.
func Pack(s Sequence) *PackedSeq {
	p := &PackedSeq{
		words: make([]uint64, (len(s)+31)/32),
		n:     len(s),
	}
	for i, b := range s {
		p.words[i/32] |= uint64(b) << (2 * uint(i%32))
	}
	return p
}

// Len returns the number of bases.
func (p *PackedSeq) Len() int { return p.n }

// Bytes returns the size of the packed storage in bytes.
func (p *PackedSeq) Bytes() int { return len(p.words) * 8 }

// Base returns base i.
func (p *PackedSeq) Base(i int) Base {
	return Base(p.words[i/32] >> (2 * uint(i%32)) & 3)
}

// Slice unpacks bases [i, j) into a fresh Sequence.
func (p *PackedSeq) Slice(i, j int) Sequence {
	s := make(Sequence, j-i)
	for x := i; x < j; x++ {
		s[x-i] = p.Base(x)
	}
	return s
}

// Kmer packs k bases starting at i; behaves like PackKmer on the unpacked
// sequence.
func (p *PackedSeq) Kmer(i, k int) Kmer {
	if k > MaxK {
		panic(fmt.Sprintf("dna: k=%d exceeds MaxK=%d", k, MaxK))
	}
	var v Kmer
	for x := i; x < i+k; x++ {
		v = v<<2 | Kmer(p.Base(x))
	}
	return v
}

// PackedLen returns the number of bytes that hold n bases packed four per
// byte (AppendPacked's layout).
func PackedLen(n int) int { return (n + 3) / 4 }

// AppendPacked appends s packed four bases per byte to dst and returns the
// extended slice: base i sits in bits 2*(i%4) of byte i/4, and the pad bits
// of a partial last byte are zero. Every persisted index stores its
// sequences in this layout; read as little-endian uint64 words it is also
// PackedSeq's.
func AppendPacked(dst []byte, s Sequence) []byte {
	full := len(s) &^ 3
	for i := 0; i < full; i += 4 {
		q := s[i : i+4 : i+4]
		dst = append(dst, byte(q[0])|byte(q[1])<<2|byte(q[2])<<4|byte(q[3])<<6)
	}
	if full < len(s) {
		var b byte
		for j, x := range s[full:] {
			b |= byte(x) << uint(2*j)
		}
		dst = append(dst, b)
	}
	return dst
}

// AppendUnpacked appends the first n bases held in packed (AppendPacked's
// layout) to dst, decoding a byte at a time, and returns the extended
// slice. It panics if packed holds fewer than n bases.
func AppendUnpacked(dst Sequence, packed []byte, n int) Sequence {
	base := len(dst)
	dst = slices.Grow(dst, n)[:base+n]
	out := dst[base:]
	full := n / 4
	for i, b := range packed[:full] {
		o := out[4*i : 4*i+4 : 4*i+4]
		o[0] = Base(b & 3)
		o[1] = Base(b >> 2 & 3)
		o[2] = Base(b >> 4 & 3)
		o[3] = Base(b >> 6)
	}
	for j := 4 * full; j < n; j++ {
		out[j] = Base(packed[full] >> uint(2*(j%4)) & 3)
	}
	return dst
}

// ReadPacked reads n bases stored in AppendPacked's layout from r. When r
// reports its unread length through a Len() int method, the sequence is
// allocated once for the bases that length can still hold: exactly n
// when the stream backs them. Otherwise it starts at a bounded chunk and
// grows only as bytes arrive. Either way a corrupted length cannot force
// an allocation the stream does not back.
func ReadPacked(r io.Reader, n int) (Sequence, error) {
	chunk := make([]byte, min(PackedLen(n), 1<<16))
	size := min(n, 1<<20)
	if lr, ok := r.(interface{ Len() int }); ok {
		size = min(n, 4*min(lr.Len(), PackedLen(n)))
	}
	seq := hugemem.Advise(make(Sequence, 0, size))
	for len(seq) < n {
		c := min(PackedLen(n-len(seq)), len(chunk))
		if _, err := io.ReadFull(r, chunk[:c]); err != nil {
			return nil, err
		}
		seq = AppendUnpacked(seq, chunk[:c], min(n-len(seq), 4*c))
	}
	return seq, nil
}
