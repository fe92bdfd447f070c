package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"casa/internal/trace"
)

// wallFixture writes a small casa-walltrace/v1 capture: a 2-worker pool
// over 4 shards of 25 reads, one host reduce phase and one lifecycle
// span, with worker 0 doing three shards (the straggler).
func wallFixture(t *testing.T) string {
	t.Helper()
	w := trace.NewWall(64)
	at := func(us int64) time.Time { return time.UnixMicro(1_800_000_000_000_000 + us) }
	w.Record(trace.WallWorkerProc(0), "casa", trace.WallShardName(0, 0, 25), at(0), 300*time.Microsecond)
	w.Record(trace.WallWorkerProc(1), "casa", trace.WallShardName(1, 25, 50), at(0), 100*time.Microsecond)
	w.Record(trace.WallWorkerProc(0), "casa", trace.WallShardName(2, 50, 75), at(310), 200*time.Microsecond)
	w.Record(trace.WallWorkerProc(0), "casa", trace.WallShardName(3, 75, 100), at(520), 100*time.Microsecond)
	w.Record(trace.WallHostProc, "casa", "reduce", at(630), 40*time.Microsecond)
	w.Record("casa-serve", "running", "run-xyz", at(0), 700*time.Microsecond)
	path := filepath.Join(t.TempDir(), "wall.json")
	if err := trace.WriteWallFile(path, w.Spans(), w.Dropped()); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunWallReport(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, wallFixture(t), 2); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"casa-walltrace/v1: 6 spans (0 dropped)",
		"workers: 2   shards: 4   reads: 100",
		// Worker 0: 3 shards, 75 reads, 600 us busy.
		"00          3       75        600",
		"01          1       25        100",
		// Pool busy 700 us; imbalance = 600 / mean(350) = 1.71x.
		"imbalance (max/mean worker busy): 1.71x",
		"slowest 2 shards:",
		trace.WallShardName(0, 0, 25),
		trace.WallShardName(2, 50, 75),
		"non-worker spans (2):",
		"reduce",
		"run-xyz",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("wall report lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "track ") {
		t.Fatalf("single-track capture printed a per-track table:\n%s", out)
	}
	// -top 2 must leave shard 3 out of the slowest table.
	if strings.Contains(out, trace.WallShardName(3, 75, 100)) {
		t.Fatalf("wall report ranks more shards than -top asked for:\n%s", out)
	}
}

// TestRunPicksReportBySchema: each schema gets its own report, and a
// file of neither schema — an unknown one, or a JSONL stream — is an
// error naming what was found.
func TestRunPicksReportBySchema(t *testing.T) {
	dir := t.TempDir()
	cycle := filepath.Join(dir, "cycle.json")
	tr := trace.New(trace.PolicyAll, 0)
	tr.NewBuffer("e").Emit(0, "exact", "exact", 0, 10)
	if err := trace.WriteFile(cycle, tr.Spans()); err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string]string{
		cycle:          "== e: 1 spans, 1 reads ==",
		wallFixture(t): "== casa-walltrace/v1: 6 spans (0 dropped) ==",
	} {
		var buf bytes.Buffer
		if err := run(&buf, path, 5); err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(buf.String(), want) {
			t.Errorf("%s: report does not start with %q:\n%s", filepath.Base(path), want, buf.String())
		}
	}

	for name, tc := range map[string]struct{ body, want string }{
		"unknown.json": {`{"traceEvents":[],"otherData":{"schema":"bogus/v9"}}`, `unknown trace schema "bogus/v9"`},
		"t.jsonl":      {"{\"schema\":\"casa-trace/v1\"}\n{\"proc\":\"e\",\"read\":0}\n", "JSONL"},
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(tc.body), 0o644); err != nil {
			t.Fatal(err)
		}
		err := run(io.Discard, path, 5)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one naming %q", name, err, tc.want)
		}
	}
}

// TestNegativeTopIsUsageError: -top < 0 used to slice the ranking with a
// negative bound and panic; it is a usage error (exit 2) naming the flag,
// on a cycle and a wall trace alike.
func TestNegativeTopIsUsageError(t *testing.T) {
	for _, path := range []string{"cycle.json", wallFixture(t)} {
		var stdout, stderr bytes.Buffer
		if code := cli([]string{"-top", "-1", path}, &stdout, &stderr); code != 2 {
			t.Fatalf("%s: exit %d, want 2", path, code)
		}
		if !strings.Contains(stderr.String(), "-top must be >= 0, got -1") {
			t.Errorf("%s: stderr does not name -top:\n%s", path, stderr.String())
		}
	}
	var stdout, stderr bytes.Buffer
	if code := cli([]string{"-top", "0", wallFixture(t)}, &stdout, &stderr); code != 0 {
		t.Fatalf("-top 0: exit %d:\n%s", code, stderr.String())
	}
}

// TestRunWallReportTracks splits a pool shared by two stages — seeding on
// "casa", extension on "seedex", as casa-align records them — by track.
func TestRunWallReportTracks(t *testing.T) {
	w := trace.NewWall(16)
	at := func(us int) time.Time { return time.Unix(0, 0).Add(time.Duration(us) * time.Microsecond) }
	w.Record(trace.WallWorkerProc(0), "casa", trace.WallShardName(0, 0, 50), at(0), 100*time.Microsecond)
	w.Record(trace.WallWorkerProc(1), "casa", trace.WallShardName(1, 50, 100), at(0), 100*time.Microsecond)
	w.Record(trace.WallWorkerProc(0), "seedex", trace.WallShardName(0, 0, 50), at(100), 300*time.Microsecond)
	w.Record(trace.WallWorkerProc(1), "seedex", trace.WallShardName(1, 50, 100), at(100), 300*time.Microsecond)
	path := filepath.Join(t.TempDir(), "wall.json")
	if err := trace.WriteWallFile(path, w.Spans(), w.Dropped()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run(&buf, path, 1); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"  casa              2      100        200    25.0",
		"  seedex            2      100        600    75.0",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("wall report lacks %q:\n%s", want, out)
		}
	}
}
