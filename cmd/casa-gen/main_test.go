package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestUsageErrors checks that every flag combination that cannot yield a
// read or a pair exits 2 with a message naming the flag, and writes no
// output file. Before these checks -reads -5 panicked and the others
// exited 0 after writing an empty read set.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		flag string // the flag the message must name
	}{
		{"negative read count", []string{"-reads", "-5"}, "-reads"},
		{"zero read count", []string{"-reads", "0"}, "-reads"},
		{"zero read length", []string{"-read-len", "0"}, "-read-len"},
		{"read longer than reference", []string{"-bases", "50"}, "-read-len"},
		{"empty reference", []string{"-bases", "0"}, "-bases"},
		{"more chromosomes than bases", []string{"-bases", "5", "-chroms", "10"}, "-bases"},
		{"no chromosome", []string{"-chroms", "0"}, "-chroms"},
		{"insert longer than reference", []string{"-paired", "-bases", "1000", "-insert", "5000"}, "-insert"},
		{"insert shorter than a read", []string{"-paired", "-bases", "1000", "-insert", "50"}, "-insert"},
		{"unknown flag", []string{"-bogus"}, "-bogus"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			ref, reads := filepath.Join(dir, "ref.fa"), filepath.Join(dir, "reads.fq")
			args := append([]string{"-out", ref, "-reads-out", reads}, tc.args...)
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != 2 {
				t.Errorf("exit %d, want 2 (stderr %q)", code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.flag) {
				t.Errorf("stderr %q does not name %s", stderr.String(), tc.flag)
			}
			for _, p := range []string{ref, reads, reads + ".2"} {
				if _, err := os.Stat(p); err == nil {
					t.Errorf("%s written by a rejected run", filepath.Base(p))
				}
			}
		})
	}
}

// TestWritesRequestedReads checks that a valid single-end or paired run
// exits 0, writes the requested number of FASTQ records to each read
// file, and writes the same bytes when run again with the same flags.
func TestWritesRequestedReads(t *testing.T) {
	for _, tc := range []struct {
		name  string
		args  []string
		files []string
	}{
		{"single", []string{"-chroms", "2"}, []string{"reads.fq"}},
		{"paired", []string{"-paired"}, []string{"reads.fq", "reads.fq.2"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var first map[string][]byte
			for rep := 0; rep < 2; rep++ {
				dir := t.TempDir()
				args := append([]string{"-bases", "20000", "-reads", "12", "-seed", "3",
					"-out", filepath.Join(dir, "ref.fa"), "-reads-out", filepath.Join(dir, "reads.fq")}, tc.args...)
				var stdout, stderr bytes.Buffer
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				got := map[string][]byte{}
				for _, name := range append([]string{"ref.fa"}, tc.files...) {
					b, err := os.ReadFile(filepath.Join(dir, name))
					if err != nil {
						t.Fatal(err)
					}
					got[name] = b
				}
				for _, name := range tc.files {
					if n := bytes.Count(got[name], []byte("\n")); n != 4*12 {
						t.Errorf("%s has %d lines, want %d", name, n, 4*12)
					}
				}
				if first == nil {
					first = got
					continue
				}
				for name, b := range got {
					if !bytes.Equal(b, first[name]) {
						t.Errorf("%s differs between two runs with the same flags", name)
					}
				}
			}
		})
	}
}
