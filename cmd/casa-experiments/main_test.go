package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestSmallScaleGolden pins the paper reproduction at small scale: every
// figure, table, summary and ablation row casa-experiments prints must
// match the committed output byte for byte. The output is a function of
// the models alone, so a diff is a modelled number that moved; regenerate
// a golden only on purpose, with
//
//	go run ./cmd/casa-experiments -all -scale small > cmd/casa-experiments/testdata/all-small.golden
//	go run ./cmd/casa-experiments -ablation -scale small > cmd/casa-experiments/testdata/ablation-small.golden
func TestSmallScaleGolden(t *testing.T) {
	for _, tc := range []struct{ golden, flag string }{
		{"all-small.golden", "-all"},
		{"ablation-small.golden", "-ablation"},
	} {
		t.Run(tc.flag, func(t *testing.T) {
			t.Parallel()
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := run([]string{tc.flag, "-scale", "small"}, &got); err != nil {
				t.Fatal(err)
			}
			if got.String() != string(want) {
				gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
				for i := range max(len(gl), len(wl)) {
					var g, w string
					if i < len(gl) {
						g = gl[i]
					}
					if i < len(wl) {
						w = wl[i]
					}
					if g != w {
						t.Fatalf("output differs from testdata/%s at line %d:\n got: %q\nwant: %q", tc.golden, i+1, g, w)
					}
				}
			}
		})
	}
}

// TestRunRejectsUnknownScale requires an unknown -scale to fail before any
// workload is generated.
func TestRunRejectsUnknownScale(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-scale", "huge"}, &out)
	if err == nil || !strings.Contains(err.Error(), `unknown scale "huge"`) || out.Len() != 0 {
		t.Fatalf("run(-scale huge) = %v with %d bytes of output", err, out.Len())
	}
}

// TestHeadlineTableMatchesRecordedRun keeps EXPERIMENTS.md's headline
// table in step with the default-scale run it quotes,
// docs/experiments-default.txt: every row of one is a row of the other,
// each measured number equals the recorded one to the digits quoted, and
// each paper number equals the recorded paper number (a parenthesised
// note in the table is not part of the quote).
func TestHeadlineTableMatchesRecordedRun(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	txt, err := os.ReadFile(filepath.Join("..", "..", "docs", "experiments-default.txt"))
	if err != nil {
		t.Fatal(err)
	}
	// The recorded rows: metric, measured, paper in columns two or more
	// spaces apart, after the section's header and rule lines.
	recorded := map[string][2]string{}
	_, section, _ := strings.Cut(string(txt), "== Headline summary")
	for _, line := range strings.Split(section, "\n")[3:] {
		if strings.TrimSpace(line) == "" {
			break
		}
		cols := regexp.MustCompile(`\s{2,}`).Split(strings.TrimSpace(line), -1)
		if len(cols) != 3 {
			t.Fatalf("recorded headline row %q has %d columns", line, len(cols))
		}
		recorded[cols[0]] = [2]string{cols[1], cols[2]}
	}
	_, table, _ := strings.Cut(string(doc), "## Headline summary")
	rows := 0
	for _, line := range strings.Split(table, "\n") {
		if strings.HasPrefix(line, "## ") {
			break
		}
		cells := strings.Split(strings.Trim(line, "| "), " | ")
		if !strings.HasPrefix(line, "|") || cells[0] == "metric" || strings.HasPrefix(cells[0], "---") {
			continue
		}
		rows++
		metric, paper, measured := cells[0], cells[1], cells[2]
		rec, ok := recorded[strings.Replace(metric, "energy efficiency", "efficiency", 1)]
		if !ok {
			t.Errorf("EXPERIMENTS.md headline %q is not in the recorded run", metric)
			continue
		}
		got, want := numbers(measured), numbers(rec[0])
		if len(got) != len(want) {
			t.Errorf("%s: measured %q, recorded %q", metric, measured, rec[0])
			continue
		}
		for i, q := range got {
			v, _ := strconv.ParseFloat(want[i], 64)
			x, _ := strconv.ParseFloat(q, 64)
			digits := 0
			if _, frac, ok := strings.Cut(q, "."); ok {
				digits = len(frac)
			}
			if math.Abs(x-v) > 0.5*math.Pow(10, -float64(digits))+1e-9 {
				t.Errorf("%s: measured %q, recorded %q", metric, measured, rec[0])
			}
		}
		note := regexp.MustCompile(`\s*\(.*\)`)
		if got, want := numbers(note.ReplaceAllString(paper, "")), numbers(rec[1]); !slices.Equal(got, want) {
			t.Errorf("%s: paper %q, recorded %q", metric, paper, rec[1])
		}
	}
	if rows != len(recorded) {
		t.Errorf("EXPERIMENTS.md quotes %d headline rows, the recorded run has %d", rows, len(recorded))
	}
}

// numbers returns the decimal numbers in s as written.
func numbers(s string) []string {
	return regexp.MustCompile(`[0-9]+(\.[0-9]+)?`).FindAllString(s, -1)
}
