package main

import (
	"bytes"
	"os"
	"path/filepath"
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
