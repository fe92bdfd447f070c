package main

import (
	"flag"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestParseArgsFlagMatrix drives parseArgs over the build/inspect flag
// matrix. Every combination of -info with an explicit build flag must be
// rejected — before this gate, `casa-index -info idx -out new.casaidx`
// silently inspected and never wrote anything — while each mode's own
// flags parse cleanly and defaults never trigger the conflict.
func TestParseArgsFlagMatrix(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr []string // substrings the error must mention; empty = no error
		check   func(t *testing.T, o *options)
	}{
		{
			name: "build with defaults",
			args: []string{"-ref", "ref.fa"},
			check: func(t *testing.T, o *options) {
				if o.ref != "ref.fa" || o.out != "ref.casaidx" || o.eng != "casa" ||
					o.minSMEM != 19 || o.partition != 0 || o.shards != 0 {
					t.Errorf("options = %+v", o)
				}
				if o.kSet || o.mSet {
					t.Errorf("default -k/-m must not count as explicitly set: %+v", o)
				}
			},
		},
		{
			name: "build with every knob",
			args: []string{"-ref", "ref.fa", "-out", "x.casaidx", "-engine", "fmindex",
				"-min-smem", "25", "-partition", "1024", "-shards", "4", "-shard-overlap", "300"},
			check: func(t *testing.T, o *options) {
				if o.out != "x.casaidx" || o.eng != "fmindex" || o.minSMEM != 25 ||
					o.partition != 1024 || o.shards != 4 || o.shardOverlap != 300 {
					t.Errorf("options = %+v", o)
				}
			},
		},
		{
			name: "explicit casa geometry is recorded",
			args: []string{"-ref", "ref.fa", "-k", "15", "-m", "8"},
			check: func(t *testing.T, o *options) {
				if o.k != 15 || o.m != 8 || !o.kSet || !o.mSet {
					t.Errorf("options = %+v", o)
				}
			},
		},
		{
			name: "inspect alone",
			args: []string{"-info", "ref.casaidx"},
			check: func(t *testing.T, o *options) {
				if o.info != "ref.casaidx" {
					t.Errorf("options = %+v", o)
				}
			},
		},
		{name: "no flags at all", args: nil},
		{
			name:    "inspect with -ref",
			args:    []string{"-info", "idx", "-ref", "ref.fa"},
			wantErr: []string{"-ref"},
		},
		{
			name:    "inspect with -out",
			args:    []string{"-info", "idx", "-out", "new.casaidx"},
			wantErr: []string{"-out"},
		},
		{
			name:    "inspect with -engine",
			args:    []string{"-info", "idx", "-engine", "fmindex"},
			wantErr: []string{"-engine"},
		},
		{
			name:    "inspect with -partition",
			args:    []string{"-partition", "4096", "-info", "idx"},
			wantErr: []string{"-partition"},
		},
		{
			name:    "inspect with -k",
			args:    []string{"-info", "idx", "-k", "19"},
			wantErr: []string{"-k"},
		},
		{
			name:    "inspect with -m",
			args:    []string{"-info", "idx", "-m", "10"},
			wantErr: []string{"-m"},
		},
		{
			name:    "inspect with -shards",
			args:    []string{"-info", "idx", "-shards", "2"},
			wantErr: []string{"-shards"},
		},
		{
			name:    "inspect with -shard-overlap",
			args:    []string{"-info", "idx", "-shard-overlap", "512"},
			wantErr: []string{"-shard-overlap"},
		},
		{
			name:    "inspect with -min-smem",
			args:    []string{"-info", "idx", "-min-smem", "19"},
			wantErr: []string{"-min-smem"},
		},
		{
			name:    "inspect with several build flags names each",
			args:    []string{"-info", "idx", "-out", "x", "-k", "12", "-m", "6"},
			wantErr: []string{"-out", "-k", "-m"},
		},
		{
			name:    "explicit default value still conflicts",
			args:    []string{"-info", "idx", "-out", "ref.casaidx"},
			wantErr: []string{"-out"},
		},
		{
			name:    "unknown flag",
			args:    []string{"-bogus"},
			wantErr: []string{"bogus"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("casa-index", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			o, err := parseArgs(fs, tc.args)
			if len(tc.wantErr) == 0 {
				if err != nil {
					t.Fatalf("parseArgs(%v): unexpected error %v", tc.args, err)
				}
				if tc.check != nil {
					tc.check(t, o)
				}
				return
			}
			if err == nil {
				t.Fatalf("parseArgs(%v): want error mentioning %v, got options %+v", tc.args, tc.wantErr, o)
			}
			for _, want := range tc.wantErr {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not mention %s", err, want)
				}
			}
		})
	}
}

// TestMain lets a test drive the command end to end: with
// CASA_INDEX_RUN_MAIN=1 in its environment the test binary runs main on
// its own arguments instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv("CASA_INDEX_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestTagWidthLimitExits builds with k-m=26, wider than the 32-bit host
// tags hold: casa-index must exit non-zero, name the 16-base limit and
// leave no index behind.
func TestTagWidthLimitExits(t *testing.T) {
	checkBuildRejected(t, []string{"-k", "30", "-m", "4"}, "k-m=26 exceeds the 16-base tag limit")
}

// TestMiniIndexLimitExits builds with m=20, whose 4^20-entry mini index
// would ask for 8 TiB per partition: casa-index must exit non-zero, name
// the 12-base limit and leave no index behind.
func TestMiniIndexLimitExits(t *testing.T) {
	checkBuildRejected(t, []string{"-k", "24", "-m", "20", "-min-smem", "24"}, "m=20 exceeds the 12-base mini index limit")
}

// checkBuildRejected runs casa-index on a small reference with the given
// geometry flags and requires a non-zero exit whose output contains want,
// with no index left behind.
func checkBuildRejected(t *testing.T, geometry []string, want string) {
	t.Helper()
	dir := t.TempDir()
	ref := filepath.Join(dir, "ref.fa")
	if err := os.WriteFile(ref, []byte(">chr1\n"+strings.Repeat("ACGTTGCAAGGCT", 40)+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "ref.casaidx")
	cmd := exec.Command(os.Args[0], append([]string{"-ref", ref, "-out", out}, geometry...)...)
	cmd.Env = append(os.Environ(), "CASA_INDEX_RUN_MAIN=1")
	stderr, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("casa-index %s exited 0:\n%s", strings.Join(geometry, " "), stderr)
	}
	if !strings.Contains(string(stderr), want) {
		t.Errorf("error does not say %q:\n%s", want, stderr)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("a rejected build left %s behind (stat: %v)", out, err)
	}
}
