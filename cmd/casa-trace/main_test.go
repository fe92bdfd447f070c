package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"casa/internal/trace"
)

func span(proc, track, name string, read int32, start, dur int64) trace.Span {
	return trace.Span{Proc: proc, Track: track, Name: name, Read: read, Start: start, Dur: dur}
}

func TestUnionLen(t *testing.T) {
	ss := []trace.Span{
		span("e", "t", "a", 0, 0, 10),
		span("e", "t", "b", 0, 2, 4), // nested: no extra coverage
		span("e", "t", "c", 0, 20, 5),
		span("e", "t", "d", 0, 23, 7), // overlaps c's tail by 2
	}
	if got := unionLen(ss); got != 20 {
		t.Fatalf("unionLen = %d, want 20", got)
	}
}

func TestBucket(t *testing.T) {
	for _, tc := range []struct {
		v    int64
		want int
	}{{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {1023, 10}, {1024, 11}} {
		if got := bucket(tc.v); got != tc.want {
			t.Errorf("bucket(%d) = %d, want %d", tc.v, got, tc.want)
		}
	}
}

// TestAnalyze pins the core numbers: slowest-first ordering and window
// vs per-track union.
func TestAnalyze(t *testing.T) {
	spans := []trace.Span{
		// Engine "e": read 0 is fast, read 1 is slow with a nested
		// partition sub-span that must not double count.
		span("e", "exact", "exact", 0, 0, 10),
		span("e", "exact", "exact", 1, 0, 100),
		span("e", "p00", "exact", 1, 5, 40),
	}
	reps := analyze(spans)
	if len(reps) != 1 {
		t.Fatalf("got %d procs, want 1", len(reps))
	}
	e := reps[0]
	if e.proc != "e" || len(e.reads) != 2 {
		t.Fatalf("proc %q with %d reads, want e with 2", e.proc, len(e.reads))
	}
	if e.reads[0].read != 1 || e.reads[0].window != 100 {
		t.Errorf("slowest read = %d window %d, want read 1 window 100", e.reads[0].read, e.reads[0].window)
	}
	if e.reads[0].byTrack["exact"] != 100 || e.reads[0].byTrack["p00"] != 40 {
		t.Errorf("read 1 breakdown = %v", e.reads[0].byTrack)
	}
}

// TestRunEndToEnd writes a trace under two extensions — -trace writes
// Chrome JSON whatever the path — and checks the rendered report, top-N
// respected.
func TestRunEndToEnd(t *testing.T) {
	tr := trace.New(trace.PolicyAll, 0)
	b := tr.NewBuffer("casa")
	for r := 0; r < 20; r++ {
		b.Emit(r, "exact", "exact", 0, int64(10+r))
		b.Emit(r, "smem", "smem", int64(10+r), 30)
	}
	spans := tr.Spans()

	dir := t.TempDir()
	for _, name := range []string{"t.json", "t.jsonl"} {
		path := filepath.Join(dir, name)
		if err := trace.WriteFile(path, spans); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := run(&out, path, 3); err != nil {
			t.Fatal(err)
		}
		got := out.String()
		if !strings.Contains(got, "== casa: 40 spans, 20 reads ==") {
			t.Errorf("%s: missing proc header in:\n%s", name, got)
		}
		// Slowest read is 19: window 10+19+30 = 59.
		if !strings.Contains(got, "read     19  total         59") {
			t.Errorf("%s: missing slowest read line in:\n%s", name, got)
		}
		if strings.Count(got, "  read ") != 3 {
			t.Errorf("%s: want exactly 3 top reads, got:\n%s", name, got)
		}
	}
}
