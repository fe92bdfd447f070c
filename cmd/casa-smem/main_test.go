package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"casa/internal/dna"
	"casa/internal/readsim"
	"casa/internal/seqio"
	"casa/internal/serve"
)

// TestMain lets a test drive the command end to end: with
// CASA_SMEM_RUN_MAIN=1 in its environment the test binary runs main on
// its own arguments instead of the tests.
// CASA_SMEM_BATCH, when set, overrides the stream's batch size.
func TestMain(m *testing.M) {
	if os.Getenv("CASA_SMEM_RUN_MAIN") == "1" {
		if n, err := strconv.Atoi(os.Getenv("CASA_SMEM_BATCH")); err == nil {
			batchSize = n
		}
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// goldenReport is the text report of the fixture below at the default
// options, pinned byte for byte.
const goldenReport = "testdata/report.golden"

// smemFixture writes a two-chromosome reference and 200 simulated reads
// from both strands (with SNPs, sequencing errors and indels, so reads
// carry zero, one or several SMEMs) into dir.
func smemFixture(t *testing.T, dir string) (ref, reads string) {
	t.Helper()
	var recs []seqio.Record
	var all dna.Sequence
	for c := 0; c < 2; c++ {
		g := readsim.GenerateReference(readsim.DefaultGenome(30000, int64(5+c)))
		recs = append(recs, seqio.Record{Name: fmt.Sprintf("chr%d", c+1), Seq: g})
		all = append(all, g...)
	}
	write := func(name string, fn func(f *os.File) error) string {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := fn(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	ref = write("ref.fa", func(f *os.File) error { return seqio.WriteFasta(f, recs, 70) })
	profile := readsim.ReadProfile{Length: 101, Count: 200, Seed: 17, MutRate: 0.01, ErrRate: 0.02, IndelRate: 0.1, RevComp: true}
	reads = write("reads.fq", func(f *os.File) error {
		return seqio.WriteFastq(f, readsim.Records(readsim.Simulate(all, profile)))
	})
	return ref, reads
}

// smemCmd returns the command running casa-smem with args, seeding in
// batches of batch reads (0 keeps the default).
func smemCmd(batch int, args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "CASA_SMEM_RUN_MAIN=1")
	if batch > 0 {
		cmd.Env = append(cmd.Env, "CASA_SMEM_BATCH="+strconv.Itoa(batch))
	}
	return cmd
}

// runSmemBatch runs casa-smem with args at the given batch size and
// returns its stdout and stderr; the run must exit 0.
func runSmemBatch(t *testing.T, batch int, args ...string) (stdout, stderr []byte) {
	t.Helper()
	cmd := smemCmd(batch, args...)
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		t.Fatalf("casa-smem %s: %v\n%s", strings.Join(args, " "), err, errOut.String())
	}
	return out.Bytes(), errOut.Bytes()
}

// runSmem runs casa-smem with args and returns its stdout.
func runSmem(t *testing.T, args ...string) []byte {
	t.Helper()
	out, _ := runSmemBatch(t, 0, args...)
	return out
}

// TestReportBytes pins casa-smem's stdout: the text report is the same
// bytes at 1, 2 and 4 workers and equals the committed golden file, one
// line per read in input order followed by a blank line and the summary
// as the last line; -quiet prints only the summary, and -json prints only
// the casa-smem/v1 document, whose counts agree with the text report.
func TestReportBytes(t *testing.T) {
	ref, reads := smemFixture(t, t.TempDir())
	base := []string{"-ref", ref, "-reads", reads, "-max-reads", "0"}

	var text []byte
	for _, w := range []string{"1", "2", "4"} {
		out := runSmem(t, append(base, "-workers", w)...)
		if text == nil {
			text = out
		} else if !bytes.Equal(out, text) {
			t.Fatalf("-workers %s: text report differs from -workers 1", w)
		}
	}
	golden, err := os.ReadFile(goldenReport)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(text, golden) {
		t.Fatalf("text report differs from %s:\n%s", goldenReport, text)
	}

	lines := strings.Split(strings.TrimSuffix(string(text), "\n"), "\n")
	if len(lines) != 200+2 || lines[200] != "" {
		t.Fatalf("want 200 read lines, a blank line and the summary; got %d lines", len(lines))
	}
	smems := 0
	for _, l := range lines[:200] {
		f := strings.Split(l, "\t")
		n, err := strconv.Atoi(strings.TrimSuffix(f[1], " SMEMs"))
		if err != nil || len(f) != n+2 {
			t.Fatalf("malformed read line %q", l)
		}
		smems += n
	}
	summary := lines[201]
	if want := fmt.Sprintf("200 reads, %d SMEMs via casa", smems); summary != want {
		t.Fatalf("summary %q, want %q", summary, want)
	}

	quiet := runSmem(t, append(base, "-quiet")...)
	if got := strings.TrimLeft(string(quiet), "\n"); got != summary+"\n" {
		t.Errorf("-quiet printed %q, want only the summary %q", quiet, summary)
	}

	dec := json.NewDecoder(bytes.NewReader(runSmem(t, append(base, "-json", "-workers", "2")...)))
	var rep serve.Report
	if err := dec.Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if dec.More() {
		t.Error("-json printed more than one document")
	}
	if rep.Schema != serve.ReportSchema || rep.Reads != 200 || rep.SMEMs != smems || rep.Engine != "casa" {
		t.Errorf("-json report: schema %q, %d reads, %d SMEMs via %q; want %q, 200, %d via casa",
			rep.Schema, rep.Reads, rep.SMEMs, rep.Engine, serve.ReportSchema, smems)
	}
}
