package runcli

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"casa/internal/core"
	"casa/internal/dna"
	"casa/internal/engine"
	"casa/internal/idxio"
	"casa/internal/refidx"
	"casa/internal/seqio"
	"casa/internal/shard"
)

// fixture is a small two-chromosome reference, a second reference with a
// different chromosome table, an fmindex index over the first, and a
// casa index over it cut into 1024-base partitions.
type fixture struct {
	ref, otherRef, index, casaIndex string
}

func newFixture(t *testing.T) fixture {
	t.Helper()
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(7))
	writeRef := func(name string, chroms ...string) string {
		var recs []seqio.Record
		for _, c := range chroms {
			s := make(dna.Sequence, 2000)
			for i := range s {
				s[i] = dna.Base(rng.Intn(4))
			}
			recs = append(recs, seqio.Record{Name: c, Seq: s})
		}
		var buf bytes.Buffer
		if err := seqio.WriteFasta(&buf, recs, 60); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	fx := fixture{
		ref:       writeRef("ref.fa", "chr1", "chr2"),
		otherRef:  writeRef("other.fa", "chrA"),
		index:     filepath.Join(dir, "ref.casaidx"),
		casaIndex: filepath.Join(dir, "ref-casa.casaidx"),
	}
	ix, err := refidx.LoadFasta(fx.ref)
	if err != nil {
		t.Fatal(err)
	}
	var chroms []idxio.Chromosome
	for _, c := range ix.Chromosomes() {
		chroms = append(chroms, idxio.Chromosome{Name: c.Name, Start: int64(c.Start), Length: int64(c.Length)})
	}
	save := func(path, name string, opt engine.Options) {
		eng, err := engine.New(name, ix.Flat(), opt)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := engine.SaveIndex(&buf, eng, opt, chroms); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	save(fx.index, "fmindex", engine.Options{MinSMEM: 19})
	save(fx.casaIndex, "casa", engine.Options{MinSMEM: 19, Partition: 1024})
	return fx
}

// parse runs Parse over a flag set holding the command's required own
// flags, as its main registers them.
func parse(spec Spec, args []string) (*Run, *Exit) {
	fs := flag.NewFlagSet(spec.Name, flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	for _, name := range spec.Required {
		fs.String(name, "", "")
	}
	r, e := Parse(fs, spec, args)
	if r != nil {
		r.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return r, e
}

// resolve is a command's path from its command line to a built or loaded
// engine, returning the exit code the command ends with on the way.
func resolve(spec Spec, args []string) (int, *Run, error) {
	r, e := parse(spec, args)
	if e != nil {
		return e.Code, nil, e.Err
	}
	ix, err := r.Reference()
	if err == nil {
		_, err = r.Engine(ix)
	}
	if err != nil {
		return 1, r, err
	}
	return 0, r, nil
}

// TestFlagExitMatrix drives each command's shared flag set through the
// harness: usage errors and -index header conflicts exit 2 naming the
// flag, unreadable or mismatched inputs exit 1, and -version, -engine
// list and consistent runs resolve with 0. Flags left at their defaults
// never conflict with the header.
func TestFlagExitMatrix(t *testing.T) {
	fx := newFixture(t)
	reads := []string{"-reads", "reads.fq"}
	with := func(args ...string) []string { return append(args, reads...) }
	cases := []struct {
		name   string
		spec   Spec
		args   []string
		code   int
		errHas string                 // substring of the error; "" = not checked
		check  func(*testing.T, *Run) // on a resolved run
	}{
		// casa-smem
		{name: "smem neither -ref nor -index", spec: Smem, args: reads, code: 2},
		{name: "smem both -ref and -index", spec: Smem, args: with("-ref", fx.ref, "-index", fx.index), code: 2},
		{name: "smem without -reads", spec: Smem, args: []string{"-ref", fx.ref}, code: 2},
		{name: "smem -verify with -index", spec: Smem, args: with("-index", fx.index, "-verify", "fmindex"), code: 2, errHas: "-verify"},
		{name: "smem -index -engine conflict", spec: Smem, args: with("-index", fx.index, "-engine", "casa"), code: 2, errHas: "-engine casa"},
		{name: "smem -index -min-smem conflict", spec: Smem, args: with("-index", fx.index, "-min-smem", "25"), code: 2, errHas: "-min-smem 25"},
		{name: "smem -index -shards conflict", spec: Smem, args: with("-index", fx.index, "-shards", "2"), code: 2, errHas: "-shards 2"},
		{name: "smem -index -shard-overlap conflict", spec: Smem, args: with("-index", fx.index, "-shard-overlap", "300"), code: 2, errHas: "-shard-overlap 300"},
		{name: "smem missing index", spec: Smem, args: with("-index", filepath.Join(t.TempDir(), "none")), code: 1},
		{name: "smem bad -log-level", spec: Smem, args: with("-ref", fx.ref, "-log-level", "loud"), code: 2, errHas: "-log-level"},
		{name: "smem bad -trace-sample", spec: Smem, args: with("-ref", fx.ref, "-trace", "t.json", "-trace-sample", "some"), code: 2},
		{name: "smem -engine list", spec: Smem, args: []string{"-engine", "list"}, code: 0},
		{name: "smem -verify list", spec: Smem, args: []string{"-verify", "list"}, code: 0},
		{name: "smem -version", spec: Smem, args: []string{"-version"}, code: 0},
		{
			name: "smem -index takes the header", spec: Smem, args: with("-index", fx.index), code: 0,
			check: func(t *testing.T, r *Run) {
				if r.EngineName != "fmindex" || r.MinSMEM != 19 || r.Options.MinSMEM != 19 {
					t.Errorf("engine %q min-smem %d options %+v", r.EngineName, r.MinSMEM, r.Options)
				}
			},
		},
		{
			name: "smem -index with agreeing flags", spec: Smem,
			args: with("-index", fx.index, "-engine", "fm", "-min-smem", "19", "-shards", "0"), code: 0,
			check: func(t *testing.T, r *Run) {
				if r.EngineName != "fmindex" {
					t.Errorf("engine %q, want fmindex", r.EngineName)
				}
			},
		},
		{
			name: "smem alias canonicalized", spec: Smem,
			args: with("-ref", fx.ref, "-engine", "fm", "-verify", "bwa", "-shards", "2", "-shard-overlap", "300"), code: 0,
			check: func(t *testing.T, r *Run) {
				if r.EngineName != "fmindex" || r.Verify != "cpu" {
					t.Errorf("engine %q verify %q, want fmindex and cpu", r.EngineName, r.Verify)
				}
				if r.Options.Shards != 2 || r.Options.ShardOverlap != 300 || r.Options.MinSMEM != 19 {
					t.Errorf("options %+v", r.Options)
				}
			},
		},

		{
			name: "smem sharded read past -shard-overlap", spec: Smem,
			args: with("-ref", fx.ref, "-engine", "sharded:fmindex", "-shards", "2", "-shard-overlap", "300"), code: 0,
			check: refusesReadsPast(300, "the 300-base shard overlap"),
		},
		{
			name: "smem casa index read past a partition cut", spec: Smem, args: with("-index", fx.casaIndex), code: 0,
			check: refusesReadsPast(core.DefaultPartitionOverlap+1, "the 101 that a casa partition cut keeps whole"),
		},
		{
			name: "smem casa in one partition takes any read", spec: Smem, args: with("-ref", fx.ref, "-engine", "casa"), code: 0,
			check: refusesReadsPast(0, ""),
		},

		// casa-align
		{name: "align without -ref", spec: Align, args: reads, code: 2},
		{name: "align -index without -ref", spec: Align, args: with("-index", fx.index), code: 2},
		{name: "align has no -min-smem", spec: Align, args: with("-ref", fx.ref, "-min-smem", "19"), code: 2},
		{name: "align -index -engine conflict", spec: Align, args: with("-ref", fx.ref, "-index", fx.index, "-engine", "casa"), code: 2, errHas: "-engine"},
		{name: "align -index -partition conflict", spec: Align, args: with("-ref", fx.ref, "-index", fx.index, "-partition", "1024"), code: 2, errHas: "-partition 1024"},
		{name: "align -index mismatched -ref", spec: Align, args: with("-ref", fx.otherRef, "-index", fx.index), code: 1, errHas: "does not match -ref"},
		{name: "align -engine list", spec: Align, args: []string{"-engine", "list"}, code: 0},
		{name: "align -version", spec: Align, args: []string{"-version"}, code: 0},
		{
			name: "align -ref with -index", spec: Align, args: with("-ref", fx.ref, "-index", fx.index), code: 0,
			check: func(t *testing.T, r *Run) {
				if r.EngineName != "fmindex" {
					t.Errorf("engine %q, want fmindex", r.EngineName)
				}
			},
		},
		{
			name: "align -ref keeps its partition default", spec: Align, args: with("-ref", fx.ref, "-engine", "fm"), code: 0,
			check: func(t *testing.T, r *Run) {
				if r.EngineName != "fmindex" || r.Options != (engine.Options{Partition: 4 << 20}) {
					t.Errorf("engine %q options %+v", r.EngineName, r.Options)
				}
			},
		},

		{
			name: "align sharded read past the default overlap", spec: Align,
			args: with("-ref", fx.ref, "-engine", "sharded:fmindex"), code: 0,
			check: refusesReadsPast(shard.DefaultOverlap, fmt.Sprintf("the %d-base shard overlap", shard.DefaultOverlap)),
		},
		{
			name: "align casa read past a partition cut", spec: Align,
			args: with("-ref", fx.ref, "-engine", "casa", "-partition", "1024"), code: 0,
			check: refusesReadsPast(core.DefaultPartitionOverlap+1, "the 101 that a casa partition cut keeps whole"),
		},

		// casa-serve
		{name: "serve neither -ref nor -index", spec: Serve, args: nil, code: 2},
		{name: "serve both -ref and -index", spec: Serve, args: []string{"-ref", fx.ref, "-index", fx.index}, code: 2},
		{name: "serve -index -min-smem conflict", spec: Serve, args: []string{"-index", fx.index, "-min-smem", "25"}, code: 2, errHas: "-min-smem 25"},
		{name: "serve -index -partition conflict", spec: Serve, args: []string{"-index", fx.index, "-partition", "1024"}, code: 2, errHas: "-partition 1024"},
		{name: "serve -index -engine conflict", spec: Serve, args: []string{"-index", fx.index, "-engine", "casa"}, code: 2, errHas: "-engine casa"},
		{name: "serve -trace names -walltrace", spec: Serve, args: []string{"-ref", fx.ref, "-trace", "x.json"}, code: 2, errHas: "-walltrace"},
		{name: "serve has no -event-interval", spec: Serve, args: []string{"-ref", fx.ref, "-event-interval", "1s"}, code: 2},
		{name: "serve has no -trace-spans", spec: Serve, args: []string{"-ref", fx.ref, "-trace-spans", "10"}, code: 2},
		{name: "serve -engine list", spec: Serve, args: []string{"-engine", "list"}, code: 0},
		{name: "serve -version", spec: Serve, args: []string{"-version"}, code: 0},
		{
			name: "serve -index takes the header", spec: Serve, args: []string{"-index", fx.index, "-walltrace", "run.json"}, code: 0,
			check: func(t *testing.T, r *Run) {
				if r.EngineName != "fmindex" || r.Options.MinSMEM != 19 || r.Trace != nil || r.Wall != nil || r.wallPath != "run.json" {
					t.Errorf("engine %q options %+v trace %v wall %v path %q", r.EngineName, r.Options, r.Trace, r.Wall, r.wallPath)
				}
			},
		},
	}

	// -version and -engine list print to stdout.
	stdout := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	os.Stdout = devnull
	defer func() { os.Stdout = stdout }()

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, r, err := resolve(tc.spec, tc.args)
			if code != tc.code {
				t.Fatalf("exit %d (err %v), want %d", code, err, tc.code)
			}
			if tc.errHas != "" && (err == nil || !strings.Contains(err.Error(), tc.errHas)) {
				t.Errorf("error %v, want it to mention %q", err, tc.errHas)
			}
			if tc.check != nil {
				tc.check(t, r)
			}
		})
	}
}

// refusesReadsPast checks a resolved run: its engine seeds a read of
// limit bases, and refuses one base more with ErrReadTooLong naming the
// read and saying that it exceeds the limit's reason, as the CLIs' batch
// check reports it. A limit of 0 requires a read longer than the
// reference to be accepted. Only the reads' lengths matter.
func refusesReadsPast(limit int, reason string) func(*testing.T, *Run) {
	return func(t *testing.T, r *Run) {
		ix, err := r.Reference()
		if err != nil {
			t.Fatal(err)
		}
		eng, err := r.Engine(ix)
		if err != nil {
			t.Fatal(err)
		}
		if limit == 0 {
			if err := engine.CheckReads(eng, []dna.Sequence{make(dna.Sequence, 1<<16)}, []string{"long"}); err != nil {
				t.Errorf("a %d-base read: %v", 1<<16, err)
			}
			return
		}
		fits := make(dna.Sequence, limit)
		if err := engine.CheckReads(eng, []dna.Sequence{fits}, []string{"fits"}); err != nil {
			t.Errorf("a %d-base read: %v", limit, err)
		}
		err = engine.CheckReads(eng, []dna.Sequence{fits, make(dna.Sequence, limit+1)}, []string{"fits", "long"})
		want := fmt.Sprintf(`read "long": read too long: %d bases exceed %s`, limit+1, reason)
		if !errors.Is(err, engine.ErrReadTooLong) || !strings.Contains(err.Error(), want) {
			t.Errorf("a %d-base read: error %v, want ErrReadTooLong mentioning %q", limit+1, err, want)
		}
	}
}

// captureExit replaces the process exit with a recorder for the test.
func captureExit(t *testing.T) *[]int {
	t.Helper()
	var codes []int
	old := exit
	exit = func(code int) { codes = append(codes, code) }
	t.Cleanup(func() { exit = old })
	return &codes
}

// started parses a casa-smem run over fx with the extra flags and starts
// its sidecar over 10 reads.
func started(t *testing.T, fx fixture, extra ...string) *Run {
	t.Helper()
	r, e := parse(Smem, append([]string{"-ref", fx.ref, "-reads", "reads.fq"}, extra...))
	if e != nil {
		t.Fatalf("parse: %+v", e)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	r.Ctx = ctx
	r.Start(10)
	return r
}

// rebind requires addr to be free again.
func rebind(t *testing.T, addr string) {
	t.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("%s still held after exit: %v", addr, err)
	}
	ln.Close()
}

// TestFatalReleasesHTTPListener: an error after -http has started must
// not leave the port bound, so a rerun can listen on it at once.
func TestFatalReleasesHTTPListener(t *testing.T) {
	codes := captureExit(t)
	r := started(t, newFixture(t), "-http", "127.0.0.1:0", "-progress", "1ms", "-stall-timeout", "1h")
	addr := r.srv.Addr()
	r.Fatal(errors.New("injected failure"))
	if len(*codes) != 1 || (*codes)[0] != 1 {
		t.Fatalf("exit codes %v, want [1]", *codes)
	}
	rebind(t, addr)
	r.Tracker.Finish()
}

// TestFinishOutcomes maps run outcomes to exit codes and checks that the
// trace files are written and the listener released on every path.
func TestFinishOutcomes(t *testing.T) {
	fx := newFixture(t)
	cases := []struct {
		name        string
		interrupted bool
		failed      bool
		want        int
	}{
		{"ok", false, false, 0},
		{"failed", false, true, 1},
		{"interrupted", true, true, 130},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			codes := captureExit(t)
			dir := t.TempDir()
			tracePath, wallPath := filepath.Join(dir, "t.json"), filepath.Join(dir, "w.json")
			r := started(t, fx, "-http", "127.0.0.1:0", "-trace", tracePath, "-walltrace", wallPath, "-progress", "1ms")
			addr := r.srv.Addr()
			r.Tracker.Finish()
			if !tc.interrupted {
				// Finish holds -http until interrupted.
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				r.Ctx = ctx
			}
			reported := false
			r.Finish(tc.interrupted, func() bool { reported = true; return tc.failed })
			if len(*codes) != 1 || (*codes)[0] != tc.want {
				t.Fatalf("exit codes %v, want [%d]", *codes, tc.want)
			}
			if !reported {
				t.Error("report was not run")
			}
			for _, p := range []string{tracePath, wallPath} {
				if st, err := os.Stat(p); err != nil || st.Size() == 0 {
					t.Errorf("%s not written: %v", p, err)
				}
			}
			rebind(t, addr)
		})
	}
}
