package seqio

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"
	"testing/iotest"

	"casa/internal/dna"
)

func TestReadFastaBasic(t *testing.T) {
	in := ">chr1 test chromosome\nACGT\nACGT\n>chr2\nTTTT\n"
	recs, err := ReadFasta(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	if recs[0].Name != "chr1" || recs[0].Desc != "test chromosome" {
		t.Errorf("header parse: %q %q", recs[0].Name, recs[0].Desc)
	}
	if got := recs[0].Seq.String(); got != "ACGTACGT" {
		t.Errorf("seq = %q, want ACGTACGT", got)
	}
	if got := recs[1].Seq.String(); got != "TTTT" {
		t.Errorf("seq2 = %q", got)
	}
}

func TestReadFastaLowerCaseAndN(t *testing.T) {
	recs, err := ReadFasta(strings.NewReader(">r\nacgtN\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs[0].Seq) != 5 {
		t.Fatalf("len = %d, want 5 (N replaced, not dropped)", len(recs[0].Seq))
	}
	if got := recs[0].Seq[:4].String(); got != "ACGT" {
		t.Errorf("lower-case parse = %q", got)
	}
}

func TestReadFastaNReplacementDeterministic(t *testing.T) {
	const in = ">r\nNNNNNNNN\n"
	a, err := ReadFasta(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReadFasta(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if !a[0].Seq.Equal(b[0].Seq) {
		t.Error("N replacement is nondeterministic")
	}
	// Long N runs must not be constant: that would fabricate repeats.
	allSame := true
	for _, x := range a[0].Seq {
		if x != a[0].Seq[0] {
			allSame = false
		}
	}
	if allSame {
		t.Error("run of N replaced by a constant base")
	}
}

func TestReadFastaErrors(t *testing.T) {
	if _, err := ReadFasta(strings.NewReader("ACGT\n")); err == nil {
		t.Error("sequence before header not rejected")
	}
	// A read error that arrives with the last bytes, before a clean
	// end of stream, must still fail the parse.
	if _, err := ReadFasta(&errWithData{data: ">r\nACGT\nAC"}); err == nil || err.Error() != "seqio: read: disk gone" {
		t.Errorf("read error with the last bytes: %v", err)
	}
	if _, err := ReadFastq(&errWithData{data: "@r\nACGT\n+\nIIII"}); err == nil || err.Error() != "seqio: read: disk gone" {
		t.Errorf("FASTQ read error with the last bytes: %v", err)
	}
	// A read error that cuts a record short after its header is still a
	// read error, not a missing separator, sequence or quality line.
	for _, data := range []string{"@r\nACGT\n+\nIIII\n@s\nAC", "@r\nACGT\n+\nIIII\n@s", "@r\nACGT\n+\nIIII\n@s\nAC\n+"} {
		if _, err := ReadFastq(&errWithData{data: data}); err == nil || err.Error() != "seqio: read: disk gone" {
			t.Errorf("FASTQ read error after the header of %q: %v", data, err)
		}
	}
}

// errWithData returns all of data with an error in one Read, then io.EOF.
type errWithData struct {
	data string
	done bool
}

func (r *errWithData) Read(p []byte) (int, error) {
	if r.done {
		return 0, io.EOF
	}
	r.done = true
	return copy(p, r.data), errors.New("disk gone")
}

func TestFastaRoundTrip(t *testing.T) {
	recs := []Record{
		{Name: "a", Desc: "first", Seq: dna.FromString("ACGTACGTACGTACGT")},
		{Name: "b", Seq: dna.FromString("TTT")},
	}
	var buf bytes.Buffer
	if err := WriteFasta(&buf, recs, 5); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFasta(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || !got[0].Seq.Equal(recs[0].Seq) || !got[1].Seq.Equal(recs[1].Seq) {
		t.Errorf("round trip mismatch: %+v", got)
	}
	if got[0].Desc != "first" {
		t.Errorf("desc lost: %q", got[0].Desc)
	}
}

// rewrap re-wraps raw sequence text (which may contain ambiguous bases) at
// the given width, preserving the header lines.
func rewrap(raw string, width int) string {
	var out strings.Builder
	for _, line := range strings.Split(raw, "\n") {
		if strings.HasPrefix(line, ">") {
			out.WriteString(line)
			out.WriteByte('\n')
			continue
		}
		for len(line) > width {
			out.WriteString(line[:width])
			out.WriteByte('\n')
			line = line[width:]
		}
		if len(line) > 0 {
			out.WriteString(line)
			out.WriteByte('\n')
		}
	}
	return out.String()
}

// TestReadFastaWrapInvariance is the headline-bugfix property test: the
// same raw sequence text (including N runs spanning line breaks) must
// decode to the identical genome at every line width.
func TestReadFastaWrapInvariance(t *testing.T) {
	const raw = ">chr1 with ambiguity\n" +
		"ACGTNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNACGTRYKMSWBDHVacgtnnn\n" +
		"NNNNACGTACGTNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNTTT\n" +
		">chr2\nNNNNNNNNNNNNNNNNNNNNNNNNNNNNNN\n"
	want, err := ReadFasta(strings.NewReader(rewrap(raw, 60)))
	if err != nil {
		t.Fatal(err)
	}
	for _, width := range []int{1, 7, 60, 10_000} {
		got, err := ReadFasta(strings.NewReader(rewrap(raw, width)))
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		if len(got) != len(want) {
			t.Fatalf("width %d: %d records, want %d", width, len(got), len(want))
		}
		for i := range want {
			if !got[i].Seq.Equal(want[i].Seq) {
				t.Errorf("width %d: record %d decodes differently from width 60:\n got %s\nwant %s",
					width, i, got[i].Seq, want[i].Seq)
			}
		}
	}
}

// TestFastaRoundTripWrapWidths asserts ReadFasta(WriteFasta(recs, w)) is
// identical for the issue's width set, for sequences long enough that
// every width actually wraps.
func TestFastaRoundTripWrapWidths(t *testing.T) {
	seq := make([]byte, 500)
	for i := range seq {
		seq[i] = "ACGT"[i%4]
	}
	recs := []Record{
		{Name: "a", Desc: "desc", Seq: dna.FromString(string(seq))},
		{Name: "b", Seq: dna.FromString("TTTACGTACGT")},
	}
	for _, width := range []int{1, 7, 60, 10_000} {
		var buf bytes.Buffer
		if err := WriteFasta(&buf, recs, width); err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		got, err := ReadFasta(&buf)
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		if len(got) != len(recs) {
			t.Fatalf("width %d: %d records, want %d", width, len(got), len(recs))
		}
		for i := range recs {
			if !got[i].Seq.Equal(recs[i].Seq) {
				t.Errorf("width %d: record %d not preserved", width, i)
			}
		}
	}
}

func TestReadFastqBasic(t *testing.T) {
	in := "@read1 desc\nACGT\n+\nIIII\n@read2\nTT\n+read2\nAB\n"
	recs, err := ReadFastq(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	if recs[0].Name != "read1" || recs[0].Seq.String() != "ACGT" || string(recs[0].Qual) != "IIII" {
		t.Errorf("record 0 = %+v", recs[0])
	}
	if string(recs[1].Qual) != "AB" {
		t.Errorf("record 1 qual = %q", recs[1].Qual)
	}
}

func TestReadFastqErrors(t *testing.T) {
	cases := []string{
		"ACGT\n+\nIIII\n",              // missing @
		"@r\nACGT\nIIII\n",             // missing +
		"@r\nACGT\n+\nII\n",            // qual length mismatch
		"@r\nACGT\n+\n",                // truncated
		"@r\nACGT\n",                   // truncated earlier
		"@r\nACGT\n+OTHERNAME\nIIII\n", // separator contradicts header
	}
	for _, in := range cases {
		if _, err := ReadFastq(strings.NewReader(in)); err == nil {
			t.Errorf("malformed FASTQ accepted: %q", in)
		}
	}
}

func TestFastqRoundTrip(t *testing.T) {
	recs := []Record{
		{Name: "r1", Seq: dna.FromString("ACGTTGCA"), Qual: []byte("IIIIIIII")},
		{Name: "r2", Desc: "sim", Seq: dna.FromString("GG"), Qual: []byte("!~")},
	}
	var buf bytes.Buffer
	if err := WriteFastq(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFastq(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if !got[i].Seq.Equal(recs[i].Seq) || string(got[i].Qual) != string(recs[i].Qual) {
			t.Errorf("record %d mismatch: %+v vs %+v", i, got[i], recs[i])
		}
	}
}

func TestWriteFastqDefaultQuality(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFastq(&buf, []Record{{Name: "r", Seq: dna.FromString("ACG")}}); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFastq(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[0].Qual) != "III" {
		t.Errorf("default quality = %q, want III", got[0].Qual)
	}
}

func TestForEachFastqStreams(t *testing.T) {
	in := "@a\nAC\n+\nII\n@b\nGT\n+\nII\n"
	var names []string
	err := ForEachFastq(strings.NewReader(in), func(r Record) error {
		names = append(names, r.Name)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("names = %v", names)
	}
}

func TestFastqSeparatorValidation(t *testing.T) {
	// Matching name (with or without description) is accepted.
	for _, in := range []string{
		"@read1\nAC\n+\nII\n",
		"@read1\nAC\n+read1\nII\n",
		"@read1 desc\nAC\n+read1\nII\n",
		"@read1 desc\nAC\n+read1 desc\nII\n",
	} {
		if _, err := ReadFastq(strings.NewReader(in)); err != nil {
			t.Errorf("valid separator rejected: %q: %v", in, err)
		}
	}
	// Contradicting name is a parse error.
	if _, err := ReadFastq(strings.NewReader("@read1\nAC\n+read2\nII\n")); err == nil {
		t.Error("contradicting separator name accepted")
	}
}

func TestFastaCRLF(t *testing.T) {
	recs, err := ReadFasta(strings.NewReader(">r\r\nACGT\r\n"))
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].Seq.String() != "ACGT" {
		t.Errorf("CRLF handling: %q", recs[0].Seq.String())
	}
}

// TestFastqReaderLineEdges covers the line layouts the buffered reader
// must handle: a sequence line longer than its buffer (copied out whole),
// CRLF line endings, a final record without a trailing newline, and
// blank lines between records.
func TestFastqReaderLineEdges(t *testing.T) {
	long := strings.Repeat("ACGT", lineBuf/4+1000)
	longQual := strings.Repeat("I", len(long))
	cases := []struct {
		name, in string
		seqs     []string
	}{
		{"long line", "@a\n" + long + "\n+\n" + longQual + "\n@b\nGT\n+\nII\n", []string{long, "GT"}},
		{"long header", "@" + strings.Repeat("n", lineBuf+10) + "\nAC\n+\nII\n", []string{"AC"}},
		{"crlf", "@a x\r\nAC\r\n+a\r\nII\r\n@b\r\nGT\r\n+\r\nII\r\n", []string{"AC", "GT"}},
		{"no final newline", "@a\nAC\n+\nII\n@b\nGT\n+\nII", []string{"AC", "GT"}},
		{"blank lines", "\n@a\nAC\n+\nII\n\n\r\n@b\nGT\n+\nII\n\n", []string{"AC", "GT"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fr := NewFastqReader(strings.NewReader(c.in))
			var got []string
			for {
				rec, err := fr.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				if len(rec.Qual) != len(rec.Seq) {
					t.Fatalf("record %s: %d qualities for %d bases", rec.Name, len(rec.Qual), len(rec.Seq))
				}
				got = append(got, rec.Seq.String())
			}
			if !slices.Equal(got, c.seqs) {
				t.Errorf("sequences differ from %d expected", len(c.seqs))
			}
		})
	}
}

// TestFastqErrorMessages pins every FASTQ parse error, line number
// included.
func TestFastqErrorMessages(t *testing.T) {
	cases := []struct{ in, want string }{
		{"ACGT\n+\nIIII\n", `seqio: line 1: FASTQ header must start with '@', got "ACGT"`},
		{"@r\nACGT\nIIII\n", `seqio: line 3: FASTQ separator '+' missing`},
		{"@r\nACGT\n", `seqio: line 2: FASTQ separator '+' missing`},
		{"@r\n", `seqio: line 1: truncated FASTQ record (missing sequence)`},
		{"@r\nACGT\n+\n", `seqio: line 3: truncated FASTQ record (missing quality)`},
		{"@r\nACGT\n+\nII\n", `seqio: line 4: quality length 2 != sequence length 4`},
		{"@r\nAC\n+\nII\n@s x\nACGT\n+OTHER y\nIIII\n", `seqio: line 7: FASTQ separator "OTHER" contradicts header "s"`},
		{"@r\r\nACGT\r\n+\r\nII\r\n", `seqio: line 4: quality length 2 != sequence length 4`},
	}
	for _, c := range cases {
		_, err := ReadFastq(strings.NewReader(c.in))
		if err == nil || err.Error() != c.want {
			t.Errorf("%q: error %v, want %s", c.in, err, c.want)
		}
	}
	if _, err := ReadFastq(iotest.ErrReader(errors.New("disk gone"))); err == nil || err.Error() != "seqio: read: disk gone" {
		t.Errorf("read error: %v", err)
	}
}

// TestFastqReaderAllocs pins the parser's per-record cost: one header
// string, the sequence and the qualities.
func TestFastqReaderAllocs(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&b, "@read%d sim\n%s\n+\n%s\n", i, strings.Repeat("ACGTN", 20), strings.Repeat("I", 100))
	}
	in := b.String()
	var sr strings.Reader
	fr := NewFastqReader(&sr)
	allocs := testing.AllocsPerRun(20, func() {
		sr.Reset(in)
		fr.br.Reset(&sr)
		for {
			if _, err := fr.Next(); err != nil {
				break
			}
		}
	})
	if perRecord := allocs / 100; perRecord > 3 {
		t.Errorf("%.2f allocations per record, want at most 3", perRecord)
	}
}

// TestReadFastaAllocs requires ReadFasta to parse lines without
// allocating per line: the same 64 Kbases wrapped at 8 bases (8,192
// lines) and at 64 (1,024 lines) may differ only by the few extra steps
// the sequence takes to grow from a shorter first line, far below one
// allocation per hundred extra lines.
func TestReadFastaAllocs(t *testing.T) {
	const bases = 1 << 16
	seq := strings.Repeat("ACGTN", bases/5+1)[:bases]
	allocs := func(width int) float64 {
		var b strings.Builder
		b.WriteString(">r one record\n")
		for i := 0; i < len(seq); i += width {
			b.WriteString(seq[i:min(i+width, len(seq))])
			b.WriteString("\n")
		}
		in := b.String()
		return testing.AllocsPerRun(5, func() {
			if _, err := ReadFasta(strings.NewReader(in)); err != nil {
				t.Fatal(err)
			}
		})
	}
	narrow, wide := allocs(8), allocs(64)
	if perLine := (narrow - wide) / (bases/8 - bases/64); perLine > 0.01 {
		t.Errorf("%v allocations at 8 bases per line, %v at 64: %.3f per extra line", narrow, wide, perLine)
	}
}
