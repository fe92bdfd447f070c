package seqio

import (
	"bytes"
	"strings"
	"testing"
)

// Fuzz targets: the parsers must never panic on arbitrary input, and
// whatever they accept must survive a write/read round trip.

func FuzzReadFasta(f *testing.F) {
	f.Add(">r desc\nACGT\nNNN\n")
	f.Add(">a\n>b\nTT\n")
	f.Add("")
	f.Add(">only-header")
	// N runs spanning line breaks: the decoded replacement must depend on
	// the record offset only, never the wrap position (wrap-invariance).
	f.Add(">n\nACGTNNN\nNNNNACG\nNNNNNNN\n")
	f.Add(">n\nNN\nNN\nNN\nNN\nNN\n")
	f.Fuzz(func(t *testing.T, in string) {
		recs, err := ReadFasta(strings.NewReader(in))
		if err != nil {
			return
		}
		// Accepted input round-trips through the writer.
		var buf bytes.Buffer
		if err := WriteFasta(&buf, recs, 60); err != nil {
			t.Fatalf("write of parsed records failed: %v", err)
		}
		again, err := ReadFasta(&buf)
		if err != nil {
			t.Fatalf("reparse failed: %v", err)
		}
		if len(again) != len(recs) {
			t.Fatalf("round trip changed record count: %d -> %d", len(recs), len(again))
		}
		for i := range recs {
			if !again[i].Seq.Equal(recs[i].Seq) {
				t.Fatalf("record %d sequence changed", i)
			}
		}
		// Wrap invariance: splitting every sequence line into width-1
		// lines must decode to the same sequences. (Skipped for inputs
		// with \r, where re-splitting moves the carriage return onto its
		// own — then trimmed-to-blank — line and legitimately changes the
		// decoded bytes.)
		if strings.ContainsAny(in, "\r") {
			return
		}
		var narrow strings.Builder
		for _, line := range strings.Split(in, "\n") {
			if strings.HasPrefix(line, ">") {
				narrow.WriteString(line)
				narrow.WriteByte('\n')
				continue
			}
			if strings.Contains(line, ">") {
				// An isolated mid-line '>' would become a header line at
				// width 1, changing the record structure rather than the
				// decoding — not a wrap-invariance question.
				return
			}
			for i := 0; i < len(line); i++ {
				narrow.WriteByte(line[i])
				narrow.WriteByte('\n')
			}
		}
		rewrapped, err := ReadFasta(strings.NewReader(narrow.String()))
		if err != nil {
			t.Fatalf("width-1 rewrap of accepted input rejected: %v", err)
		}
		if len(rewrapped) != len(recs) {
			t.Fatalf("rewrap changed record count: %d -> %d", len(recs), len(rewrapped))
		}
		for i := range recs {
			if !rewrapped[i].Seq.Equal(recs[i].Seq) {
				t.Fatalf("record %d decodes differently at width 1 (wrap-dependent decoding)", i)
			}
		}
	})
}

func FuzzReadFastq(f *testing.F) {
	f.Add("@r\nACGT\n+\nIIII\n")
	f.Add("@r\nACGT\n+\nII\n")
	f.Add("@a\nAC\n+\nII\n@b\nGT\n+\nII\n")
	f.Add("")
	// Line layouts: a sequence line longer than the reader's buffer, CRLF
	// endings, a missing final newline and blank lines between records.
	f.Add("@l\n" + strings.Repeat("ACGT", lineBuf/4+1) + "\n+\n" + strings.Repeat("I", lineBuf+4) + "\n")
	f.Add("@a x\r\nAC\r\n+a\r\nII\r\n")
	f.Add("@a\nAC\n+\nII\n@b\nGT\n+\nII")
	f.Add("\n@a\nAC\n+\nII\n\n\r\n@b\nGT\n+\nII\n")
	// One seed per parse error.
	f.Add("ACGT\n+\nIIII\n")
	f.Add("@r\nACGT\nIIII\n")
	f.Add("@r\n")
	f.Add("@r\nACGT\n+\n")
	f.Add("@r\nACGT\n+OTHER y\nIIII\n")
	f.Fuzz(func(t *testing.T, in string) {
		recs, err := ReadFastq(strings.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteFastq(&buf, recs); err != nil {
			t.Fatalf("write of parsed records failed: %v", err)
		}
		again, err := ReadFastq(&buf)
		if err != nil {
			t.Fatalf("reparse failed: %v", err)
		}
		if len(again) != len(recs) {
			t.Fatalf("round trip changed record count: %d -> %d", len(recs), len(again))
		}
		for i := range recs {
			if !again[i].Seq.Equal(recs[i].Seq) || !bytes.Equal(again[i].Qual, recs[i].Qual) {
				t.Fatalf("record %d changed", i)
			}
		}
	})
}
