package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"casa/internal/dna"
	"casa/internal/engine"
	"casa/internal/readsim"
	"casa/internal/refidx"
	"casa/internal/runcli"
	"casa/internal/sam"
	"casa/internal/seedex"
	"casa/internal/seqio"
	"casa/internal/trace"
)

// TestMain lets a test drive the command end to end: with
// CASA_ALIGN_RUN_MAIN=1 in its environment the test binary runs main on
// its own arguments instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv("CASA_ALIGN_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// alignFixture writes a two-chromosome reference, a single-end read set
// and a read-pair set into dir. Every eighth pair's second mate carries a
// substitution every 16 bases: it has no 19-base SMEM, so it places only
// through mate rescue.
func alignFixture(t *testing.T, dir string) (ref, reads, r1, r2 string) {
	t.Helper()
	var recs []seqio.Record
	var all dna.Sequence
	for c := 0; c < 2; c++ {
		g := readsim.GenerateReference(readsim.DefaultGenome(40000, int64(3+c)))
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
	profile := readsim.ReadProfile{Length: 101, Count: 300, Seed: 11, MutRate: 0.01, ErrRate: 0.01, RevComp: true}
	single := readsim.Records(readsim.Simulate(all, profile))
	reads = write("reads.fq", func(f *os.File) error { return seqio.WriteFastq(f, single) })

	profile.RevComp = false
	m1, m2 := readsim.PairRecords(readsim.SimulatePairs(all, readsim.PairProfile{Read: profile, InsertMean: 350, InsertSD: 50}))
	for i := 0; i < len(m2); i += 8 {
		seq := m2[i].Seq.Clone()
		for j := 7; j < len(seq); j += 16 {
			seq[j] = (seq[j] + 1) % 4
		}
		m2[i].Seq = seq
	}
	r1 = write("pairs.fq", func(f *os.File) error { return seqio.WriteFastq(f, m1) })
	r2 = write("pairs.fq.2", func(f *os.File) error { return seqio.WriteFastq(f, m2) })
	return ref, reads, r1, r2
}

// runAlign runs casa-align with args plus -metrics, returning the SAM it
// wrote and the seedex/* and align/* counter lines of its metrics.
func runAlign(t *testing.T, out string, args ...string) (samOut []byte, counters string) {
	t.Helper()
	samOut, stderr := runAlignMetrics(t, out, args...)
	counters = metricLines(stderr, "seedex_", "align_")
	if counters == "" {
		t.Fatalf("no seedex/align counters in the metrics:\n%s", stderr)
	}
	return samOut, counters
}

// runAlignMetrics runs casa-align with args plus -metrics, returning the
// SAM it wrote and its stderr.
func runAlignMetrics(t *testing.T, out string, args ...string) (samOut []byte, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append(args, "-out", out, "-metrics")...)
	cmd.Env = append(os.Environ(), "CASA_ALIGN_RUN_MAIN=1")
	var errOut bytes.Buffer
	cmd.Stderr = &errOut
	if err := cmd.Run(); err != nil {
		t.Fatalf("casa-align %s: %v\n%s", strings.Join(args, " "), err, errOut.String())
	}
	samOut, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	return samOut, errOut.String()
}

// metricLines returns the metrics exposition lines of stderr that start
// with one of prefixes.
func metricLines(stderr string, prefixes ...string) string {
	var lines []string
	for _, l := range strings.Split(stderr, "\n") {
		for _, p := range prefixes {
			if strings.HasPrefix(l, p) {
				lines = append(lines, l)
				break
			}
		}
	}
	return strings.Join(lines, "\n")
}

// TestOutputIndependentOfWorkers pins the parallel extension contract:
// one SAM record per read in input order, the same SAM bytes and modelled
// seedex counters at 1, 2 and 4 workers, in single-end and paired mode,
// and extension shards covering every read on the "seedex" track of
// -walltrace.
func TestOutputIndependentOfWorkers(t *testing.T) {
	dir := t.TempDir()
	ref, reads, r1, r2 := alignFixture(t, dir)
	names := func(paths ...string) []string { // read names in SAM order: mates interleave
		var mates [][]seqio.Record
		for _, p := range paths {
			recs, err := readAllFastq(p)
			if err != nil {
				t.Fatal(err)
			}
			mates = append(mates, recs)
		}
		var out []string
		for i := range mates[0] {
			for _, m := range mates {
				out = append(out, m[i].Name)
			}
		}
		return out
	}
	modes := []struct {
		name  string
		args  []string
		names []string
	}{
		{"single", []string{"-ref", ref, "-reads", reads}, names(reads)},
		{"paired", []string{"-ref", ref, "-reads", r1, "-reads2", r2}, names(r1, r2)},
	}
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			// A small batch gives several extension batches per run.
			args := append(mode.args, "-batch", "64")
			want, wantCounters := runAlign(t, filepath.Join(dir, mode.name+"-1.sam"), append(args, "-workers", "1")...)
			var qnames []string
			mapped := 0
			for _, line := range strings.Split(string(want), "\n") {
				if line == "" || line[0] == '@' {
					continue
				}
				f := strings.Split(line, "\t")
				qnames = append(qnames, f[0])
				var flag int
				fmt.Sscanf(f[1], "%d", &flag)
				if flag&sam.FlagUnmapped == 0 {
					mapped++
				}
			}
			if !slices.Equal(qnames, mode.names) {
				t.Fatalf("workers=1: SAM records are not one per read in input order")
			}
			if mapped < len(qnames)*9/10 {
				t.Fatalf("workers=1: %d of %d records mapped, want nearly all", mapped, len(qnames))
			}
			for _, w := range []string{"2", "4"} {
				wall := filepath.Join(dir, mode.name+"-"+w+".wall.json")
				got, counters := runAlign(t, filepath.Join(dir, mode.name+"-"+w+".sam"), append(args, "-workers", w, "-walltrace", wall)...)
				if !bytes.Equal(got, want) {
					t.Errorf("workers=%s: SAM differs from workers=1", w)
				}
				if counters != wantCounters {
					t.Errorf("workers=%s counters:\n%s\nworkers=1:\n%s", w, counters, wantCounters)
				}
				spans, _, err := trace.ParseWallFile(wall)
				if err != nil {
					t.Fatal(err)
				}
				extended := 0
				for _, s := range spans {
					if _, lo, hi, ok := trace.ParseWallShardName(s.Name); ok && s.Track == "seedex" {
						extended += hi - lo
					}
				}
				if extended != len(mode.names) {
					t.Errorf("workers=%s: seedex wall shards cover %d reads, want %d", w, extended, len(mode.names))
				}
			}
		})
	}
}

func readAllFastq(path string) ([]seqio.Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return seqio.ReadFastq(f)
}

// TestModelGaugesCoverRun checks that the seeding model, and the
// -verify engine's, is reduced once per run, not per batch: small
// batches and one batch holding the whole input print the same metric
// lines, and the model's reads gauge counts every read seeded.
func TestModelGaugesCoverRun(t *testing.T) {
	dir := t.TempDir()
	ref, _, r1, r2 := alignFixture(t, dir)
	for _, tc := range []struct {
		name, prefix string
		args         []string
	}{
		{name: "casa", prefix: "casa_"},
		{name: "-verify cpu", prefix: "cpu_", args: []string{"-verify", "cpu"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var want string
			for _, batch := range []string{"64", "1000000"} {
				args := append([]string{"-ref", ref, "-reads", r1, "-reads2", r2, "-batch", batch, "-workers", "2"}, tc.args...)
				_, stderr := runAlignMetrics(t, filepath.Join(dir, "b"+batch+".sam"), args...)
				got := metricLines(stderr, tc.prefix)
				if want == "" {
					want = got
				} else if got != want {
					t.Errorf("-batch %s %s* lines:\n%s\n-batch 64:\n%s", batch, tc.prefix, got, want)
				}
				total := metricLines(stderr, "align_reads_total ")
				model := tc.prefix + "model_reads "
				if n := strings.TrimPrefix(total, "align_reads_total "); n == "" || metricLines(stderr, model) != model+n {
					t.Errorf("-batch %s: %q next to %q", batch, metricLines(stderr, model), total)
				}
			}
		})
	}
}

// TestBatchMustBePositive checks that a -batch below one is a usage
// error (exit 2), not a run that aligns nothing.
func TestBatchMustBePositive(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-ref", "ref.fa", "-reads", "reads.fq", "-batch", "0")
	cmd.Env = append(os.Environ(), "CASA_ALIGN_RUN_MAIN=1")
	var exitErr *exec.ExitError
	if err := cmd.Run(); !errors.As(err, &exitErr) || exitErr.ExitCode() != 2 {
		t.Errorf("-batch 0: %v, want exit status 2", err)
	}
}

// forwardOnly hides an engine's StrandSeeder capability, which forces
// casa-align's second pool pass over the reverse complements.
type forwardOnly struct{ engine.Engine }

// alignInProcess aligns the reads at path1 (paired with path2 when it is
// not empty) with eng on a pool of workers, in batches of 64, through the
// command's stream, and returns the SAM.
func alignInProcess(t *testing.T, eng engine.Engine, ix *refidx.Index, workers int, path1, path2 string) []byte {
	t.Helper()
	sx, err := seedex.New(ix.Flat(), seedex.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var refSeqs []sam.RefSeq
	for _, c := range ix.Chromosomes() {
		refSeqs = append(refSeqs, sam.RefSeq{Name: c.Name, Length: c.Length})
	}
	var out bytes.Buffer
	writer := sam.NewWriter(&out, refSeqs, "casa-align")
	r := &runcli.Run{Ctx: context.Background(), Workers: workers, Log: slog.New(slog.NewTextHandler(io.Discard, nil))}
	r.Start(0)
	a := newAligner(r.Ctx, eng, ix, sx, 4, r.Pool(), writer, path2 != "")
	if _, _, interrupted := r.Stream(eng, r.OpenReads(path1, path2, 64, 0, nil), a.emit); interrupted {
		t.Fatal("run interrupted")
	}
	if err := writer.Flush(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestStrandSeedersNeedNoSecondPass pins the reverse strand of the cpu,
// ert and genax engines: taken from their activities, it must give the
// SAM bytes the second pool pass over the reverse complements gives, at
// 1 and 2 workers, single-end and paired.
func TestStrandSeedersNeedNoSecondPass(t *testing.T) {
	dir := t.TempDir()
	ref, reads, r1, r2 := alignFixture(t, dir)
	ix, err := refidx.LoadFasta(ref)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"cpu", "ert", "genax"} {
		eng, err := engine.New(name, ix.Flat(), engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := eng.(engine.StrandSeeder); !ok {
			t.Fatalf("%s is not a StrandSeeder", name)
		}
		for _, mode := range [][2]string{{reads, ""}, {r1, r2}} {
			want := alignInProcess(t, forwardOnly{eng}, ix, 1, mode[0], mode[1])
			for _, workers := range []int{1, 2} {
				if got := alignInProcess(t, eng, ix, workers, mode[0], mode[1]); !bytes.Equal(got, want) {
					t.Errorf("%s %s workers=%d: SAM differs from the second-pass run", name, filepath.Base(mode[0]), workers)
				}
			}
		}
	}
}

// alignCmd returns the command running casa-align with args.
func alignCmd(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "CASA_ALIGN_RUN_MAIN=1")
	return cmd
}

// TestMateFilesDifferInLength checks that mate files ending at different
// records fail the run with exit status 1 and an error naming both
// files' record counts.
func TestMateFilesDifferInLength(t *testing.T) {
	dir := t.TempDir()
	ref, _, r1, r2 := alignFixture(t, dir)
	fq, err := os.ReadFile(r2)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(fq), "\n")
	short := filepath.Join(dir, "short.fq.2")
	if err := os.WriteFile(short, []byte(strings.Join(lines[:4*299], "")), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := alignCmd("-ref", ref, "-reads", r1, "-reads2", short, "-batch", "64", "-out", filepath.Join(dir, "out.sam"))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	var exitErr *exec.ExitError
	if err := cmd.Run(); !errors.As(err, &exitErr) || exitErr.ExitCode() != 1 {
		t.Fatalf("unequal mate files: %v, want exit status 1\n%s", err, stderr.String())
	}
	if want := "mate files differ in length: 300 vs 299"; !strings.Contains(stderr.String(), want) {
		t.Errorf("stderr does not say %q:\n%s", want, stderr.String())
	}
}

// TestInterruptWritesPrefix interrupts a run whose reads arrive through a
// pipe: once the first reads are seeded, SIGINT ends the run with status
// 130 while it waits for more input, and the SAM holds exactly the
// records a full run writes for those reads.
func TestInterruptWritesPrefix(t *testing.T) {
	dir := t.TempDir()
	ref, reads, _, _ := alignFixture(t, dir)
	full, _ := runAlignMetrics(t, filepath.Join(dir, "full.sam"), "-ref", ref, "-reads", reads, "-batch", "10")
	fq, err := os.ReadFile(reads)
	if err != nil {
		t.Fatal(err)
	}
	const sent = 30
	records := strings.SplitAfter(string(fq), "\n")

	out := filepath.Join(dir, "prefix.sam")
	cmd := alignCmd("-ref", ref, "-reads", "/dev/stdin", "-batch", "10", "-progress", "10ms", "-out", out)
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer stdin.Close()
	if _, err := stdin.Write([]byte(strings.Join(records[:4*sent], ""))); err != nil {
		t.Fatal(err)
	}
	// Wait until every sent read is seeded: the run then waits on stdin.
	var log bytes.Buffer
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		log.WriteString(sc.Text() + "\n")
		if strings.Contains(sc.Text(), fmt.Sprintf("reads_done=%d ", sent)) {
			break
		}
	}
	if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	// A run that ignores the interrupt until its input ends would wait
	// forever on the open pipe.
	defer time.AfterFunc(time.Minute, func() { cmd.Process.Kill() }).Stop()
	io.Copy(&log, stderr)
	var exitErr *exec.ExitError
	if err := cmd.Wait(); !errors.As(err, &exitErr) || exitErr.ExitCode() != 130 {
		t.Fatalf("interrupted run: %v, want exit status 130\n%s", err, log.String())
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var header, body []string
	for _, l := range strings.SplitAfter(string(full), "\n") {
		if strings.HasPrefix(l, "@") {
			header = append(header, l)
		} else {
			body = append(body, l)
		}
	}
	if want := strings.Join(header, "") + strings.Join(body[:sent], ""); string(got) != want {
		t.Errorf("interrupted SAM is not the header and the first %d records of a full run:\n%s", sent, got)
	}
}
