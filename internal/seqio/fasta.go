// Package seqio reads and writes the FASTA and FASTQ formats used to ship
// reference genomes and sequencing reads. It is the I/O substrate for the
// CASA evaluation pipeline (§6 of the paper loads UCSC assemblies as FASTA
// and ERR194147 / DWGSIM reads as FASTQ).
//
// Wrap invariance: ambiguous bases (N and the other IUPAC codes) are
// replaced deterministically as a function of the base's global offset
// within its record, never of the line layout. The same reference wrapped
// at any line width therefore decodes to the identical genome, and a
// WriteFasta → ReadFasta round trip preserves every sequence exactly
// regardless of the width chosen.
package seqio

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"slices"
	"strings"

	"casa/internal/dna"
)

// Record is one named sequence, optionally with per-base quality scores
// (FASTQ). Qual is empty for FASTA records.
type Record struct {
	Name string       // header up to the first whitespace
	Desc string       // remainder of the header line, if any
	Seq  dna.Sequence // sequence with ambiguous bases replaced
	Qual []byte       // Phred+33 qualities; len(Qual)==len(Seq) for FASTQ
}

// ReadFasta parses all FASTA records from r. Sequence lines may be wrapped
// at any width. Ambiguous bases (N etc.) are replaced deterministically per
// dna.BaseFromByte. Lines are parsed in the reader's buffer, so the cost
// per line is the decode alone.
func ReadFasta(r io.Reader) ([]Record, error) {
	lr := lineReader{br: bufio.NewReaderSize(r, lineBuf)}
	var recs []Record
	var cur *Record
	for {
		line, err := lr.readLine()
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return nil, fmt.Errorf("seqio: read: %w", err)
		}
		switch {
		case len(line) == 0:
			// blank line: ignore
		case line[0] == '>':
			name, desc := splitHeader(string(line[1:]))
			recs = append(recs, Record{Name: name, Desc: desc})
			cur = &recs[len(recs)-1]
		case cur == nil:
			return nil, fmt.Errorf("seqio: line %d: sequence data before first FASTA header", lr.lineNo)
		default:
			appendBases(&cur.Seq, line)
		}
	}
}

// WriteFasta writes records in FASTA format with lines wrapped at width
// (60 if width <= 0).
func WriteFasta(w io.Writer, recs []Record, width int) error {
	if width <= 0 {
		width = 60
	}
	bw := bufio.NewWriter(w)
	for _, rec := range recs {
		if rec.Desc != "" {
			fmt.Fprintf(bw, ">%s %s\n", rec.Name, rec.Desc)
		} else {
			fmt.Fprintf(bw, ">%s\n", rec.Name)
		}
		s := rec.Seq.String()
		for i := 0; i < len(s); i += width {
			end := min(i+width, len(s))
			bw.WriteString(s[i:end])
			bw.WriteByte('\n')
		}
	}
	return bw.Flush()
}

// ReadFastq parses all FASTQ records from r (see FastqReader.Next).
func ReadFastq(r io.Reader) ([]Record, error) {
	var recs []Record
	err := ForEachFastq(r, func(rec Record) error {
		recs = append(recs, rec)
		return nil
	})
	return recs, err
}

// ForEachFastq streams FASTQ records to fn without accumulating them,
// for read sets too large to hold unpacked in memory. It stops at the
// first error fn returns and returns it.
func ForEachFastq(r io.Reader, fn func(Record) error) error {
	fr := NewFastqReader(r)
	for {
		rec, err := fr.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
}

// lineBuf is the line readers' buffer size. Lines that fit are parsed
// in place; longer lines are copied out whole.
const lineBuf = 1 << 16

// lineReader reads lines in place from a buffered reader and counts them.
type lineReader struct {
	br     *bufio.Reader
	lineNo int
	long   []byte // holds a line longer than the buffer
	err    error  // the read error that ended the last line, returned next
}

// readLine returns the next line without its line ending, or the read
// error when no bytes are left. A final line without a newline counts,
// and the error that cut it short comes with the next call. The slice is
// valid only until the next call.
func (lr *lineReader) readLine() ([]byte, error) {
	if lr.err != nil {
		return nil, lr.err
	}
	line, err := lr.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		lr.long = append(lr.long[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = lr.br.ReadSlice('\n')
			lr.long = append(lr.long, line...)
		}
		line = lr.long
	}
	lr.err = err
	if len(line) > 0 {
		lr.lineNo++
		return bytes.TrimRight(line, "\r\n"), nil
	}
	return nil, err
}

// FastqReader parses FASTQ records one at a time, for callers that pull
// reads at their own pace: a batch at a time, or two mate files in
// lockstep. Each record owns its memory (one header string, the decoded
// sequence and the qualities); nothing aliases the reader's buffer.
type FastqReader struct {
	lineReader
}

// NewFastqReader returns a reader parsing the FASTQ text of r.
func NewFastqReader(r io.Reader) *FastqReader {
	return &FastqReader{lineReader{br: bufio.NewReaderSize(r, lineBuf)}}
}

// Next parses the next record, skipping blank lines before its header.
// It returns io.EOF after the last record. Multi-line sequences are not
// supported (Illumina FASTQ is strictly 4 lines per record).
func (fr *FastqReader) Next() (Record, error) {
	var header []byte
	for len(header) == 0 {
		var err error
		header, err = fr.readLine()
		if err == io.EOF {
			return Record{}, io.EOF
		}
		if err != nil {
			return Record{}, fmt.Errorf("seqio: read: %w", err)
		}
	}
	if header[0] != '@' {
		return Record{}, fmt.Errorf("seqio: line %d: FASTQ header must start with '@', got %q", fr.lineNo, header)
	}
	name, desc := splitHeader(string(header[1:]))
	// Each line is consumed before the next read reuses the buffer: the
	// sequence is decoded now and the separator checked at once.
	seqLine, err := fr.readLine()
	if err != nil {
		return Record{}, fr.bodyErr(err, "truncated FASTQ record (missing sequence)")
	}
	seq := make(dna.Sequence, 0, len(seqLine))
	appendBases(&seq, seqLine)
	plus, err := fr.readLine()
	if err != nil {
		return Record{}, fr.bodyErr(err, "FASTQ separator '+' missing")
	}
	if len(plus) == 0 || plus[0] != '+' {
		return Record{}, fmt.Errorf("seqio: line %d: FASTQ separator '+' missing", fr.lineNo)
	}
	// The separator line may repeat the header; when it carries text,
	// a name that contradicts the '@' header means the record
	// boundaries are off by a line (or the file is corrupt).
	if sep := plus[1:]; len(sep) > 0 {
		sepName := sep
		if i := bytes.IndexAny(sep, " \t"); i >= 0 {
			sepName = sep[:i]
		}
		if string(sepName) != name {
			return Record{}, fmt.Errorf("seqio: line %d: FASTQ separator %q contradicts header %q", fr.lineNo, sepName, name)
		}
	}
	qual, err := fr.readLine()
	if err != nil {
		return Record{}, fr.bodyErr(err, "truncated FASTQ record (missing quality)")
	}
	if len(qual) != len(seq) {
		return Record{}, fmt.Errorf("seqio: line %d: quality length %d != sequence length %d", fr.lineNo, len(qual), len(seq))
	}
	return Record{Name: name, Desc: desc, Seq: seq, Qual: append(make([]byte, 0, len(qual)), qual...)}, nil
}

// bodyErr reports the error that ended a record after its header: the
// input ending there is the structure error missing, and any other read
// error is returned as a read error, whatever line it cut short.
func (fr *FastqReader) bodyErr(err error, missing string) error {
	if err != io.EOF {
		return fmt.Errorf("seqio: read: %w", err)
	}
	return fmt.Errorf("seqio: line %d: %s", fr.lineNo, missing)
}

// WriteFastq writes records in 4-line FASTQ format. Records without
// qualities get a constant 'I' (Q40) quality string.
func WriteFastq(w io.Writer, recs []Record) error {
	bw := bufio.NewWriter(w)
	for _, rec := range recs {
		qual := rec.Qual
		if len(qual) != len(rec.Seq) {
			qual = bytes.Repeat([]byte{'I'}, len(rec.Seq))
		}
		if rec.Desc != "" {
			fmt.Fprintf(bw, "@%s %s\n", rec.Name, rec.Desc)
		} else {
			fmt.Fprintf(bw, "@%s\n", rec.Name)
		}
		bw.WriteString(rec.Seq.String())
		bw.WriteString("\n+\n")
		bw.Write(qual)
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

func splitHeader(h string) (name, desc string) {
	if i := strings.IndexAny(h, " \t"); i >= 0 {
		return h[:i], strings.TrimSpace(h[i+1:])
	}
	return h, ""
}

// appendBases decodes one line of sequence text onto seq. Ambiguous bases
// are replaced as a function of the character and the base's global offset
// in the record (len(*seq)+i), so runs of N do not become a constant base
// (which would fabricate artificial repeats) while the decoded sequence
// stays invariant under re-wrapping the same text at any line width.
// The sequence grows once per line.
func appendBases(seq *dna.Sequence, line []byte) {
	off := len(*seq)
	s := slices.Grow(*seq, len(line))[:off+len(line)]
	for i, c := range line {
		if dna.IsStandard(c) {
			s[off+i] = dna.BaseFromByte(c)
		} else {
			s[off+i] = dna.Base((int(c) + off + i) & 3)
		}
	}
	*seq = s
}
