package fmindex

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"casa/internal/dna"
	"casa/internal/hugemem"
	"casa/internal/suffixarray"
)

// Index serialization for the casa-idx container (§4.1's offline index
// construction, applied to the FM-index engines). Payload layout,
// little-endian:
//
//	u64 n | ceil(n/4) packed text bytes | (n+1) x i32 suffix array
//
// Only the text and the suffix array are stored. The occ planes, sentRow
// and the C table follow from them in one linear pass (Derive), which
// costs less than reading them would.
//
// Loading is split in two so a caller can overlap it with its next read:
// Decode reads the payload into the text and suffix array, and Derive
// validates the suffix array and derives the tables; Deserialize is the
// two in sequence. When the reader reports its unread length (idxio
// section readers and bytes.Reader have a Len() int method), Decode
// allocates the text and the suffix array once, sized by what that length
// can still hold: exactly, for a well-formed payload. Any other reader
// gets bounded chunks that grow as bytes arrive. Either way a length the
// stream does not back cannot force a large allocation.
//
// Integrity (checksums, lengths) is the container's job. This layer only
// validates structure, and Derive does so before it indexes anything, so
// a corrupted-but-CRC-valid stream, or one whose CRC is not checked yet,
// can never build an index that reads out of bounds.

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
// index: Decode followed by Derive.
func Deserialize(r io.Reader) (*FMIndex, error) {
	f, err := Decode(r)
	if err != nil {
		return nil, err
	}
	if err := f.Derive(); err != nil {
		return nil, err
	}
	return f, nil
}

// Decode reads a Serialize payload's text and suffix array. The index it
// returns answers Len and Text; every other method needs Derive to have
// returned nil first.
func Decode(r io.Reader) (*FMIndex, error) {
	var u [8]byte
	if _, err := io.ReadFull(r, u[:]); err != nil {
		return nil, fmt.Errorf("fmindex: reading text length: %w", err)
	}
	n64 := binary.LittleEndian.Uint64(u[:])
	if n64 >= math.MaxInt32 {
		return nil, fmt.Errorf("fmindex: serialized text length %d exceeds the int32 suffix-array limit", n64)
	}
	n := int(n64)
	// Size the suffix array by the rows a reader that reports its unread
	// length can still deliver: all of them, for a well-formed payload.
	// Any other reader starts at one bounded chunk.
	rows := min(n+1, serializeChunk)
	if lr, ok := r.(interface{ Len() int }); ok {
		rows = min(n+1, lr.Len()/4)
	}

	text, err := dna.ReadPacked(r, n)
	if err != nil {
		return nil, fmt.Errorf("fmindex: reading packed text: %w", err)
	}

	var chunk [serializeChunk / 16]byte
	sa := hugemem.Advise(make([]int32, 0, rows))
	for len(sa) < n+1 {
		c := min(n+1-len(sa), len(chunk)/4)
		if _, err := io.ReadFull(r, chunk[:4*c]); err != nil {
			return nil, fmt.Errorf("fmindex: reading suffix array: %w", err)
		}
		base := len(sa)
		sa = slices.Grow(sa, c)[:base+c]
		for j, dst := 0, sa[base:]; j < len(dst); j++ {
			dst[j] = int32(binary.LittleEndian.Uint32(chunk[4*j:]))
		}
	}
	return &FMIndex{text: text, sa: sa, n: n}, nil
}

// BuildFromSA constructs the index from a text and an externally
// supplied suffix array (with sentinel row; len(sa) == len(text)+1),
// validating that sa is a permutation of 0..n so hostile input cannot
// produce an index that reads out of bounds.
func BuildFromSA(text dna.Sequence, sa []int32) (*FMIndex, error) {
	f := &FMIndex{text: text, sa: sa, n: len(text)}
	if err := f.Derive(); err != nil {
		return nil, err
	}
	return f, nil
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
