package fmindex

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"casa/internal/dna"
	"casa/internal/suffixarray"
)

// Index serialization for the casa-idx container (§4.1's offline index
// construction, applied to the FM-index engines): the text is stored
// packed four bases per byte and the suffix array as int32 rows; the
// occ planes and C table are cheap to recompute in one linear pass
// (BuildFromSA), so they are not stored. Payload layout, little-endian:
//
//	u64 n | ceil(n/4) packed text bytes | (n+1) x i32 suffix array
//
// Integrity (checksums, lengths) is the container's job; this layer
// only validates structure, so a corrupted-but-CRC-valid stream can
// never build an index that indexes out of bounds.

// serializeChunk bounds both the write staging buffer and the trust a
// reader places in on-disk lengths before bytes actually arrive.
const serializeChunk = 1 << 20

// Serialize writes the index's text and suffix array to w.
func (f *FMIndex) Serialize(w io.Writer) error {
	var u [8]byte
	binary.LittleEndian.PutUint64(u[:], uint64(f.n))
	if _, err := w.Write(u[:]); err != nil {
		return err
	}
	buf := make([]byte, 0, serializeChunk)
	for i := 0; i < f.n; i += 4 * serializeChunk {
		buf = dna.AppendPacked(buf[:0], f.text[i:min(i+4*serializeChunk, f.n)])
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	buf = buf[:0]
	for _, p := range f.sa {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(p))
		if len(buf) >= serializeChunk {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	if len(buf) > 0 {
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// Deserialize reads a Serialize payload back and rebuilds the full
// index. Allocation is chunked so it tracks the bytes actually read,
// not a length a corrupted stream merely claims.
func Deserialize(r io.Reader) (*FMIndex, error) {
	var u [8]byte
	if _, err := io.ReadFull(r, u[:]); err != nil {
		return nil, fmt.Errorf("fmindex: reading text length: %w", err)
	}
	n64 := binary.LittleEndian.Uint64(u[:])
	if n64 >= math.MaxInt32 {
		return nil, fmt.Errorf("fmindex: serialized text length %d exceeds the int32 suffix-array limit", n64)
	}
	n := int(n64)

	text, err := dna.ReadPacked(r, n)
	if err != nil {
		return nil, fmt.Errorf("fmindex: reading packed text: %w", err)
	}

	var chunk [serializeChunk / 16]byte
	sa := make([]int32, 0, min(n+1, serializeChunk))
	for read := 0; read < (n+1)*4; {
		c := min((n+1)*4-read, len(chunk)&^3)
		if _, err := io.ReadFull(r, chunk[:c]); err != nil {
			return nil, fmt.Errorf("fmindex: reading suffix array: %w", err)
		}
		for off := 0; off < c; off += 4 {
			sa = append(sa, int32(binary.LittleEndian.Uint32(chunk[off:])))
		}
		read += c
	}
	return BuildFromSA(text, sa)
}

// BuildFromSA constructs the index from a text and an externally
// supplied suffix array (with sentinel row; len(sa) == len(text)+1),
// validating that sa is a permutation of 0..n so hostile input cannot
// produce an index that reads out of bounds. Build routes through the
// same construction with the freshly computed suffix array.
func BuildFromSA(text dna.Sequence, sa []int32) (*FMIndex, error) {
	n := len(text)
	if len(sa) != n+1 {
		return nil, fmt.Errorf("fmindex: suffix array has %d rows for %d bases (want %d)", len(sa), n, n+1)
	}
	seen := make([]bool, n+1)
	for _, p := range sa {
		if p < 0 || int(p) > n {
			return nil, fmt.Errorf("fmindex: suffix array row %d out of range [0, %d]", p, n)
		}
		if seen[p] {
			return nil, fmt.Errorf("fmindex: duplicate suffix array row %d", p)
		}
		seen[p] = true
	}
	return build(text, sa), nil
}

// Verify recomputes the suffix array from the text and compares,
// proving a deserialized index is self-consistent; used by tests, not
// the load path (it costs a full suffix-array construction).
func (f *FMIndex) Verify() error {
	want := suffixarray.Build(f.text)
	for i, p := range f.sa {
		if p != want[i] {
			return fmt.Errorf("fmindex: suffix array row %d is %d, recomputed %d", i, p, want[i])
		}
	}
	return nil
}
