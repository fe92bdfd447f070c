// Package refidx maps between the concatenated reference coordinate space
// the seeding engines use and per-chromosome (FASTA record) coordinates:
// real references are multi-sequence (GRCh38 has 24 primary chromosomes
// plus scaffolds), while the accelerators index one flat sequence.
//
// The index inserts a spacer of SpacerLen bases between adjacent
// chromosomes so no k-mer or alignment can span a chromosome boundary
// undetected; positions inside spacers resolve to no chromosome.
package refidx

import (
	"fmt"
	"os"
	"sort"

	"casa/internal/dna"
	"casa/internal/seqio"
)

// SpacerLen is the number of separator bases inserted between adjacent
// chromosomes. It exceeds any read length used in the evaluation (101 bp)
// and the CAM stride, so cross-boundary exact matches of reportable
// length cannot arise from genuine sequence on both sides.
const SpacerLen = 256

// Chromosome describes one reference sequence.
type Chromosome struct {
	Name   string
	Start  int // offset of its first base in the flat sequence
	Length int
}

// Index is the bidirectional coordinate map.
type Index struct {
	chroms []Chromosome
	flat   dna.Sequence
}

// Build concatenates records into one flat sequence with spacers and
// returns the index. Spacer bases are generated deterministically from
// the boundary position so they are reproducible but non-repetitive.
func Build(recs []seqio.Record) (*Index, error) {
	if len(recs) == 0 {
		return nil, fmt.Errorf("refidx: no sequences")
	}
	ix := &Index{}
	for i, rec := range recs {
		if rec.Name == "" {
			return nil, fmt.Errorf("refidx: record %d has no name", i)
		}
		if len(rec.Seq) == 0 {
			return nil, fmt.Errorf("refidx: record %q is empty", rec.Name)
		}
		if i > 0 {
			for j := 0; j < SpacerLen; j++ {
				// A deterministic pseudo-random base: mixes position bits
				// so spacers do not form repeats (which would pollute the
				// k-mer tables).
				x := len(ix.flat)*2654435761 + j*40503
				ix.flat = append(ix.flat, dna.Base((x>>16)&3))
			}
		}
		ix.chroms = append(ix.chroms, Chromosome{
			Name:   rec.Name,
			Start:  len(ix.flat),
			Length: len(rec.Seq),
		})
		ix.flat = append(ix.flat, rec.Seq...)
	}
	return ix, nil
}

// LoadFasta parses the FASTA file at path and builds its index: the one
// reference loader every command shares, so an index built by casa-index
// and a FASTA rebuild in any other command seed the identical coordinate
// space.
func LoadFasta(path string) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs, err := seqio.ReadFasta(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	ix, err := Build(recs)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return ix, nil
}

// Flat returns the concatenated sequence the engines index.
func (ix *Index) Flat() dna.Sequence { return ix.flat }

// Chromosomes returns the chromosome table in reference order.
func (ix *Index) Chromosomes() []Chromosome { return ix.chroms }

// Resolve maps a flat position to its chromosome and local 0-based
// offset. ok is false for positions inside a spacer (or out of range).
func (ix *Index) Resolve(pos int) (chrom Chromosome, local int, ok bool) {
	if pos < 0 || pos >= len(ix.flat) {
		return Chromosome{}, 0, false
	}
	// First chromosome starting after pos, then step back.
	i := sort.Search(len(ix.chroms), func(i int) bool { return ix.chroms[i].Start > pos }) - 1
	if i < 0 {
		return Chromosome{}, 0, false
	}
	c := ix.chroms[i]
	local = pos - c.Start
	if local >= c.Length {
		return Chromosome{}, 0, false // inside the spacer after c
	}
	return c, local, true
}

// ResolveSpan maps a flat interval [pos, pos+length) and reports whether
// it lies entirely within one chromosome.
func (ix *Index) ResolveSpan(pos, length int) (chrom Chromosome, local int, ok bool) {
	c, local, ok := ix.Resolve(pos)
	if !ok || local+length > c.Length {
		return Chromosome{}, 0, false
	}
	return c, local, true
}

// FlatPos maps a (chromosome name, local offset) back to the flat
// coordinate.
func (ix *Index) FlatPos(name string, local int) (int, error) {
	for _, c := range ix.chroms {
		if c.Name == name {
			if local < 0 || local >= c.Length {
				return 0, fmt.Errorf("refidx: offset %d out of range for %s (len %d)", local, name, c.Length)
			}
			return c.Start + local, nil
		}
	}
	return 0, fmt.Errorf("refidx: unknown chromosome %q", name)
}
