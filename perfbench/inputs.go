package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"casa/internal/batch"
	"casa/internal/dna"
	"casa/internal/engine"
	"casa/internal/refidx"
	"casa/internal/seqio"
	"casa/internal/smem"
)

// Input sizes. The reference spans two full default CASA partitions
// (4 Mbp each) over two chromosomes, so seeding runs at the paper's
// partition geometry and every tool resolves a multi-record reference.
const (
	refBases   = 8 << 20
	refChroms  = 2
	bulkReads  = 64000 // single-end reads: seed-bulk's input and serve-sharded's request pool
	pairCount  = 6000  // read pairs of align-paired
	minSMEM    = 19
	keepInputs = 10 // seed directories kept in the cache, about 360 MB each
)

// inputs are one seed's generated files.
type inputs struct {
	dir      string
	ref      string // FASTA
	bulk     string // single-end FASTQ
	casaIdx  string // casa casa-idx/v1 index
	shardIdx string // sharded:fmindex (4 shards) casa-idx/v1 index
	pairs1   string // mate-1 FASTQ
	pairs2   string // mate-2 FASTQ
	expected string // flat fmindex SMEMs of the bulk reads, one line per read
}

func newInputs(root string, seed int64) inputs {
	dir := filepath.Join(root, ".bench_build", "perfbench", "inputs", fmt.Sprintf("seed-%d", seed))
	in := inputs{
		dir:      dir,
		ref:      filepath.Join(dir, "ref.fa"),
		bulk:     filepath.Join(dir, "bulk.fq"),
		casaIdx:  filepath.Join(dir, "casa.casaidx"),
		shardIdx: filepath.Join(dir, "sharded-fmindex.casaidx"),
		pairs1:   filepath.Join(dir, "pairs.fq"),
		pairs2:   filepath.Join(dir, "pairs.fq.2"),
		expected: filepath.Join(dir, "expected.txt"),
	}
	return in
}

// prepare makes the files workload w needs, generating each once per seed
// with the casa-gen and casa-index built from this tree, and the expected
// answers with the flat fmindex engine in a child process. Nothing here is
// timed.
func prepare(ctx context.Context, b bins, in inputs, seed int64, w string) error {
	if err := os.MkdirAll(in.dir, 0o755); err != nil {
		return err
	}
	now := time.Now()
	_ = os.Chtimes(in.dir, now, now) // marks the directory used for evictOld; a failure only affects eviction order
	if err := evictOld(filepath.Dir(in.dir), in.dir); err != nil {
		return err
	}
	s := strconv.FormatInt(seed, 10)
	gen := []string{"-bases", strconv.Itoa(refBases), "-chroms", strconv.Itoa(refChroms), "-seed", s}
	if err := once(in.bulk, func(tmp string) error {
		tmpRef := tmp + ".fa"
		args := append(gen, "-reads", strconv.Itoa(bulkReads), "-out", tmpRef, "-reads-out", tmp)
		if _, err := runCLI(ctx, b.gen, args, ""); err != nil {
			return err
		}
		return os.Rename(tmpRef, in.ref)
	}); err != nil {
		return err
	}
	switch w {
	case "seed-bulk":
		if err := once(in.casaIdx, func(tmp string) error {
			_, err := runCLI(ctx, b.index, []string{"-engine", "casa", "-ref", in.ref, "-out", tmp}, "")
			return err
		}); err != nil {
			return err
		}
	case "serve-sharded":
		if err := once(in.shardIdx, func(tmp string) error {
			_, err := runCLI(ctx, b.index, []string{"-engine", "sharded:fmindex", "-shards", "4", "-ref", in.ref, "-out", tmp}, "")
			return err
		}); err != nil {
			return err
		}
	case "align-paired":
		return once(in.pairs1, func(tmp string) error {
			tmpRef := tmp + ".fa"
			args := append(gen, "-paired", "-reads", strconv.Itoa(pairCount), "-out", tmpRef, "-reads-out", tmp)
			if _, err := runCLI(ctx, b.gen, args, ""); err != nil {
				return err
			}
			if err := sameFile(tmpRef, in.ref); err != nil {
				return err
			}
			if err := os.Remove(tmpRef); err != nil {
				return err
			}
			return os.Rename(tmp+".2", in.pairs2)
		})
	}
	return once(in.expected, func(tmp string) error {
		_, err := runCLI(ctx, b.self, []string{"-mode", "expect", "-ref", in.ref, "-reads", in.bulk, "-out", tmp}, "")
		return err
	})
}

// once runs build with a temporary path unless path exists, then renames
// the temporary into place, so an interrupted step is redone next time.
// The file is synced first: writing back a fresh index while a run is
// measured would slow the run.
func once(path string, build func(tmp string) error) error {
	if _, err := os.Stat(path); err == nil {
		return nil
	}
	tmp := path + ".tmp"
	if err := build(tmp); err != nil {
		return fmt.Errorf("making %s: %w", filepath.Base(path), err)
	}
	f, err := os.Open(tmp)
	if err != nil {
		return err
	}
	err = f.Sync()
	f.Close()
	if err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// sameFile requires two files to hold the same bytes: both casa-gen runs of
// one seed must describe one reference.
func sameFile(a, b string) error {
	x, err := os.ReadFile(a)
	if err != nil {
		return err
	}
	y, err := os.ReadFile(b)
	if err != nil {
		return err
	}
	if !bytes.Equal(x, y) {
		return fmt.Errorf("%s and %s differ", a, b)
	}
	return nil
}

// evictOld removes all but the keepInputs most recently used seed
// directories under parent; keep is never removed.
func evictOld(parent, keep string) error {
	ents, err := os.ReadDir(parent)
	if err != nil {
		return err
	}
	type dirAge struct {
		path string
		mod  time.Time
	}
	var dirs []dirAge
	for _, e := range ents {
		p := filepath.Join(parent, e.Name())
		info, err := e.Info()
		if err != nil || !e.IsDir() || p == keep {
			continue
		}
		dirs = append(dirs, dirAge{p, info.ModTime()})
	}
	sort.Slice(dirs, func(i, j int) bool { return dirs[i].mod.After(dirs[j].mod) })
	for i := keepInputs - 1; i < len(dirs); i++ {
		if err := os.RemoveAll(dirs[i].path); err != nil {
			return err
		}
	}
	return nil
}

// writeExpected is the child-process mode that seeds the bulk reads with
// the flat fmindex engine — independent of both casa and the sharded
// composite — and writes one line of SMEMs per read in input order. A line
// starts with "~ " when the read's reverse complement occurs in the
// reference, which is when casa's exact-match prepass may retire the read's
// forward strand.
func writeExpected(refPath, readsPath, outPath string) error {
	f, err := os.Open(refPath)
	if err != nil {
		return err
	}
	recs, err := seqio.ReadFasta(f)
	f.Close()
	if err != nil {
		return err
	}
	ix, err := refidx.Build(recs)
	if err != nil {
		return err
	}
	eng, err := engine.New("fmindex", ix.Flat(), engine.Options{MinSMEM: minSMEM})
	if err != nil {
		return err
	}
	reads, _, err := readFastq(readsPath)
	if err != nil {
		return err
	}
	rcs := make([]dna.Sequence, len(reads))
	for i, r := range reads {
		rcs[i] = r.ReverseComplement()
	}
	got := eng.SMEMs(batch.SeedEngine(eng, reads, batch.Options{}))
	rcGot := eng.SMEMs(batch.SeedEngine(eng, rcs, batch.Options{}))
	out, err := os.Create(outPath)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(out)
	for i, ms := range got {
		for _, m := range rcGot[i] {
			if m.Start == 0 && m.End == len(reads[i])-1 {
				bw.WriteString("~ ")
				break
			}
		}
		bw.WriteString(formatSMEMs(ms))
		bw.WriteByte('\n')
	}
	if err := bw.Flush(); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// readFastq loads a FASTQ file's sequences and names.
func readFastq(path string) ([]dna.Sequence, []string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	var reads []dna.Sequence
	var names []string
	err = seqio.ForEachFastq(f, func(rec seqio.Record) error {
		reads = append(reads, rec.Seq)
		names = append(names, rec.Name)
		return nil
	})
	return reads, names, err
}

// smemT is one SMEM as the correctness checks compare it.
type smemT struct{ start, end, hits int }

// formatSMEMs is the expected-file form of one read's SMEMs: "s,e,h ...".
func formatSMEMs(ms []smem.Match) string {
	var sb strings.Builder
	for i, m := range ms {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%d,%d,%d", m.Start, m.End, m.Hits)
	}
	return sb.String()
}

// expectation is one read's answer from the flat fmindex engine.
type expectation struct {
	smems   []smemT
	rcExact bool // the read's reverse complement occurs in the reference
}

// loadExpected reads the expected file back.
func loadExpected(path string) ([]expectation, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	out := make([]expectation, len(lines))
	for i, line := range lines {
		line, out[i].rcExact = strings.CutPrefix(line, "~ ")
		for _, f := range strings.Fields(line) {
			var m smemT
			if _, err := fmt.Sscanf(f, "%d,%d,%d", &m.start, &m.end, &m.hits); err != nil {
				return nil, fmt.Errorf("%s line %d: %w", path, i+1, err)
			}
			out[i].smems = append(out[i].smems, m)
		}
	}
	return out, nil
}

// sameSMEMs compares two SMEM sets; withHits also compares occurrence
// counts, otherwise only the read intervals (smem.SameIntervals' rule).
func sameSMEMs(a, b []smemT, withHits bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].start != b[i].start || a[i].end != b[i].end || (withHits && a[i].hits != b[i].hits) {
			return false
		}
	}
	return true
}

// simIndex parses the read index out of a casa-gen single-end read name,
// "sim_<i>_pos<p>_rev<bool>_err<n>".
func simIndex(name string) (int, bool) {
	rest, ok := strings.CutPrefix(name, "sim_")
	if !ok {
		return 0, false
	}
	i, err := strconv.Atoi(rest[:max(0, strings.IndexByte(rest, '_'))])
	return i, err == nil
}

// simOrigin parses a simulated read's origin — its 0-based offset in the
// chromosomes laid end to end, and its strand — from its name.
func simOrigin(name string) (pos int, rev bool, ok bool) {
	i := strings.Index(name, "_pos")
	j := strings.Index(name, "_rev")
	if i < 0 || j < i {
		return 0, false, false
	}
	pos, err := strconv.Atoi(name[i+4 : j])
	if err != nil {
		return 0, false, false
	}
	return pos, strings.HasPrefix(name[j+4:], "true"), true
}
