package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"casa/internal/trace"
)

// linesWithPrefix returns the lines of b that start with prefix.
func linesWithPrefix(b []byte, prefix string) string {
	var out []string
	for _, l := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(l, prefix) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}

// TestStreamingIndependentOfBatching pins the streaming contract: the
// text report, the -json report, the casa_* lines of -metrics and the
// -trace file are the same bytes at 1, 2 and 4 workers and at batch
// sizes that split the 200-read fixture unevenly (one batch, 7, 13, 64
// and single reads).
func TestStreamingIndependentOfBatching(t *testing.T) {
	dir := t.TempDir()
	ref, reads := smemFixture(t, dir)
	base := []string{"-ref", ref, "-reads", reads, "-max-reads", "0", "-metrics"}
	type output struct{ text, json, model, trace string }
	var want output
	for i, run := range []struct{ workers, batch int }{
		{1, 0}, {2, 0}, {4, 0}, {1, 7}, {2, 13}, {4, 64}, {2, 1},
	} {
		tracePath := filepath.Join(dir, fmt.Sprintf("trace-%d.json", i))
		w := fmt.Sprint(run.workers)
		text, stderr := runSmemBatch(t, run.batch, append(base, "-workers", w, "-trace", tracePath)...)
		tr, err := os.ReadFile(tracePath)
		if err != nil {
			t.Fatal(err)
		}
		js, _ := runSmemBatch(t, run.batch, append(base, "-workers", w, "-json")...)
		var stable []string // the JSON report less its run ID and worker count
		for _, l := range strings.Split(string(js), "\n") {
			if !strings.Contains(l, `"run_id"`) && !strings.Contains(l, `"workers"`) {
				stable = append(stable, l)
			}
		}
		got := output{string(text), strings.Join(stable, "\n"), linesWithPrefix(stderr, "casa_"), string(tr)}
		if got.model == "" || len(tr) == 0 {
			t.Fatalf("workers=%d batch=%d: no casa_* metrics or no trace", run.workers, run.batch)
		}
		if i == 0 {
			want = got
			continue
		}
		for _, c := range []struct{ name, got, want string }{
			{"text report", got.text, want.text},
			{"-json report", got.json, want.json},
			{"casa_* metrics", got.model, want.model},
			{"-trace file", got.trace, want.trace},
		} {
			if c.got != c.want {
				t.Errorf("workers=%d batch=%d: %s differs from one batch at one worker", run.workers, run.batch, c.name)
			}
		}
	}
}

// TestMaxReadsStopsParse checks that -max-reads stops parsing at the
// cap: a malformed record right after it is never read, so the run
// exits 0 with exactly the capped read lines.
func TestMaxReadsStopsParse(t *testing.T) {
	dir := t.TempDir()
	ref, reads := smemFixture(t, dir)
	fq, err := os.ReadFile(reads)
	if err != nil {
		t.Fatal(err)
	}
	const capReads = 50
	lines := strings.SplitAfter(string(fq), "\n")
	broken := filepath.Join(dir, "broken.fq")
	head := strings.Join(lines[:4*capReads], "")
	if err := os.WriteFile(broken, []byte(head+"not a FASTQ header\n"+strings.Join(lines[4*capReads:], "")), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{0, 7, capReads} {
		out, _ := runSmemBatch(t, batch, "-ref", ref, "-reads", broken, "-max-reads", fmt.Sprint(capReads))
		if got := strings.Count(string(out), " SMEMs\t") + strings.Count(string(out), " SMEMs\n"); got != capReads {
			t.Errorf("batch=%d: %d read lines, want %d", batch, got, capReads)
		}
	}
	// Without the cap the malformed record is reached and fails the run.
	cmd := smemCmd(0, "-ref", ref, "-reads", broken, "-max-reads", "0")
	var exitErr *exec.ExitError
	if err := cmd.Run(); !errors.As(err, &exitErr) || exitErr.ExitCode() != 1 {
		t.Errorf("uncapped run over a malformed record: %v, want exit status 1", err)
	}
}

// TestInterruptPrintsPrefix interrupts a run whose reads arrive through
// a pipe: after the first reads' lines are out, SIGINT ends the run with
// status 130, and stdout holds exactly those lines of the full report,
// then the summary of the interrupted run.
func TestInterruptPrintsPrefix(t *testing.T) {
	dir := t.TempDir()
	ref, reads := smemFixture(t, dir)
	full := runSmem(t, "-ref", ref, "-reads", reads, "-max-reads", "0")
	fq, err := os.ReadFile(reads)
	if err != nil {
		t.Fatal(err)
	}
	const sent = 30
	records := strings.SplitAfter(string(fq), "\n")

	cmd := smemCmd(10, "-ref", ref, "-reads", "/dev/stdin", "-max-reads", "0")
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := stdin.Write([]byte(strings.Join(records[:4*sent], ""))); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(stdout)
	var got bytes.Buffer
	for i := 0; i < sent; i++ {
		line, err := br.ReadBytes('\n')
		if err != nil {
			t.Fatalf("after %d lines: %v\n%s", i, err, stderr.String())
		}
		got.Write(line)
	}
	if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	rest, err := io.ReadAll(br)
	if err != nil {
		t.Fatal(err)
	}
	var exitErr *exec.ExitError
	if err := cmd.Wait(); !errors.As(err, &exitErr) || exitErr.ExitCode() != 130 {
		t.Fatalf("interrupted run: %v, want exit status 130\n%s", err, stderr.String())
	}
	stdin.Close()
	if !bytes.HasPrefix(full, got.Bytes()) {
		t.Errorf("the interrupted run's read lines are not a prefix of the full report")
	}
	summary := fmt.Sprintf("\n%d reads, %d SMEMs via casa (interrupted after %d reads)\n", sent, smemCount(got.String()), sent)
	if string(rest) != summary {
		t.Errorf("after the read lines got %q, want %q", rest, summary)
	}
}

// smemCount sums the SMEM counts of report lines.
func smemCount(report string) int {
	n := 0
	for _, l := range strings.Split(strings.TrimSpace(report), "\n") {
		n += strings.Count(l, "\t") - 1
	}
	return n
}

// TestWallTraceOverlapsOutput checks the -walltrace shape of a streamed
// run: one build phase, one output span per batch, and the first batch
// written before the last seed shard starts.
func TestWallTraceOverlapsOutput(t *testing.T) {
	dir := t.TempDir()
	ref, reads := smemFixture(t, dir)
	wall := filepath.Join(dir, "wall.json")
	runSmemBatch(t, 64, "-ref", ref, "-reads", reads, "-max-reads", "0", "-workers", "2", "-walltrace", wall, "-quiet")
	spans, _, err := trace.ParseWallFile(wall)
	if err != nil {
		t.Fatal(err)
	}
	builds, outputs := 0, 0
	firstOutputEnd, lastShardStart := int64(-1), int64(-1)
	for _, s := range spans {
		switch {
		case s.Proc == "casa-smem" && s.Name == "build":
			builds++
		case s.Proc == "casa-smem" && s.Name == "output":
			outputs++
			if firstOutputEnd < 0 || s.End() < firstOutputEnd {
				firstOutputEnd = s.End()
			}
		}
		if _, ok := trace.ParseWallWorkerProc(s.Proc); ok && s.Start > lastShardStart {
			lastShardStart = s.Start
		}
	}
	if builds != 1 || outputs != 4 {
		t.Errorf("%d build and %d output spans, want 1 and 4 (200 reads in batches of 64)", builds, outputs)
	}
	if firstOutputEnd < 0 || firstOutputEnd > lastShardStart {
		t.Errorf("first output span ends at %d, after the last seed shard starts at %d", firstOutputEnd, lastShardStart)
	}
}

// TestVerifyIndependentOfBatching pins -verify to the streaming
// contract: the verify engine cross-checks each batch as it is seeded, so
// the -json report (mismatches included), the verify engine's fmindex_*
// lines of -metrics and the -trace file, which carries both engines, are
// the same bytes at batch sizes 1, 7 and 64 and at 1 and 4 workers.
func TestVerifyIndependentOfBatching(t *testing.T) {
	dir := t.TempDir()
	ref, reads := smemFixture(t, dir)
	type output struct{ json, verify, trace string }
	var want output
	for i, run := range []struct{ workers, batch int }{
		{1, 1}, {4, 1}, {1, 7}, {4, 7}, {1, 64}, {4, 64},
	} {
		tracePath := filepath.Join(dir, fmt.Sprintf("verify-%d.json", i))
		js, stderr := runSmemBatch(t, run.batch, "-ref", ref, "-reads", reads, "-max-reads", "0", "-verify", "fmindex",
			"-workers", fmt.Sprint(run.workers), "-json", "-metrics", "-trace", tracePath)
		tr, err := os.ReadFile(tracePath)
		if err != nil {
			t.Fatal(err)
		}
		var stable []string // the JSON report less its run ID and worker count
		for _, l := range strings.Split(string(js), "\n") {
			if !strings.Contains(l, `"run_id"`) && !strings.Contains(l, `"workers"`) {
				stable = append(stable, l)
			}
		}
		got := output{strings.Join(stable, "\n"), linesWithPrefix(stderr, "fmindex_"), string(tr)}
		if !strings.Contains(got.json, `"mismatches": 0,`) || got.verify == "" || !strings.Contains(got.trace, `"fmindex"`) {
			t.Fatalf("workers=%d batch=%d: want 0 mismatches, fmindex_* metrics and fmindex spans in the trace", run.workers, run.batch)
		}
		if i == 0 {
			want = got
			continue
		}
		for _, c := range []struct{ name, got, want string }{
			{"-json report", got.json, want.json},
			{"fmindex_* metrics", got.verify, want.verify},
			{"-trace file", got.trace, want.trace},
		} {
			if c.got != c.want {
				t.Errorf("workers=%d batch=%d: %s differs from batch 1 at one worker", run.workers, run.batch, c.name)
			}
		}
	}
}
