package trace

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// The goldens pin the exported bytes of both schemas: a trace file is an
// interface (Perfetto, casa-trace, saved captures), so any change to the
// writer that moves a byte must show up here, not only in structure
// checks.

// goldenCycleSpans is a cycle-domain stream with nested read spans on two
// engines, merged by a Trace.
func goldenCycleSpans() []Span {
	tr := New(PolicyAll, 0)
	c := tr.NewBuffer("casa")
	c.Emit(0, "exact", "p00", 0, 12)
	c.Emit(0, "exact", "exact", 0, 12)
	c.Emit(0, "smem", "p00", 12, 30)
	c.Emit(0, "smem", "p01", 42, 8)
	c.Emit(0, "smem", "smem", 12, 38)
	c.Emit(2, "exact", "exact", 0, 7)
	c.Emit(2, "smem", "smem", 7, 0)
	f := tr.NewBuffer("fmindex")
	f.Emit(1, "seed", "fwd", 0, 40)
	f.Emit(1, "seed", "rev", 40, 25)
	return tr.Spans()
}

// goldenWall is a wall-domain capture with lifecycle spans, shard spans on
// two workers, a host reduce span, and a ring small enough to drop.
func goldenWall() *WallTrace {
	w := NewWall(7)
	w.Record("casa-serve", "received", "run-old", wallAt(0), 10*time.Microsecond)
	w.Record("casa-serve", "queued", "run-old", wallAt(10), 15*time.Microsecond)
	w.Record("casa-serve", "received", "aabbccdd", wallAt(1000), 50*time.Microsecond)
	w.Record("casa-serve", "queued", "aabbccdd", wallAt(1050), 200*time.Microsecond)
	w.Record("casa-serve", "running", "aabbccdd", wallAt(1250), 700*time.Microsecond)
	w.Record(WallWorkerProc(0), "casa", WallShardName(0, 0, 100), wallAt(1260), 400*time.Microsecond)
	w.Record(WallWorkerProc(1), "casa", WallShardName(1, 100, 180), wallAt(1270), 350*time.Microsecond)
	w.Record(WallWorkerProc(0), "seedex", WallShardName(2, 180, 200), wallAt(1660), 90*time.Microsecond)
	w.Record(WallHostProc, "casa", "reduce", wallAt(1900), 40*time.Microsecond)
	return w
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: export bytes differ from the golden\ngot:\n%s", name, got)
	}
}

func TestChromeGolden(t *testing.T) {
	spans := goldenCycleSpans()
	var buf bytes.Buffer
	if err := WriteChrome(&buf, spans); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "cycle.json", buf.Bytes())

	back, err := ParseChrome(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(spans) {
		t.Fatalf("parsed %d spans, want %d", len(back), len(spans))
	}
	for i, s := range back {
		want := spans[i]
		if s.Proc != want.Proc || s.Track != want.Track || s.Name != want.Name ||
			s.Read != want.Read || s.Dur != want.Dur {
			t.Fatalf("span %d: %+v, want %+v", i, s, want)
		}
	}
}

func TestWallChromeGolden(t *testing.T) {
	w := goldenWall()
	if w.Dropped() == 0 {
		t.Fatal("golden ring must have dropped spans")
	}
	spans := w.Spans()
	var buf bytes.Buffer
	if err := WriteChromeWall(&buf, spans, w.Dropped()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "wall.json", buf.Bytes())

	back, dropped, err := ParseChromeWall(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if dropped != w.Dropped() || len(back) != len(spans) {
		t.Fatalf("parsed %d spans, %d dropped; want %d, %d", len(back), dropped, len(spans), w.Dropped())
	}
	epoch := spans[0].Start
	for i, s := range back {
		want := spans[i]
		want.Start -= epoch
		if s != want {
			t.Fatalf("span %d: %+v, want %+v", i, s, want)
		}
	}
}

// TestChromeStreamIsIndentedDocument requires the streamed export to be
// byte for byte what encoding one whole document with a one-space
// json.Encoder indent gives, for empty streams, the goldens and names
// that need escaping.
func TestChromeStreamIsIndentedDocument(t *testing.T) {
	tr := New(PolicyAll, 0)
	b := tr.NewBuffer(`<engine & "co">`)
	b.Emit(0, `tab\t`, "é", 0, 3)
	b.Emit(1, "x", "</script>", 3, 4)
	escaped := tr.Spans()
	w := goldenWall()
	for _, tc := range []struct {
		name  string
		write func(*bytes.Buffer) error
	}{
		{"empty cycle", func(buf *bytes.Buffer) error { return WriteChrome(buf, nil) }},
		{"empty wall", func(buf *bytes.Buffer) error { return WriteChromeWall(buf, nil, 0) }},
		{"golden cycle", func(buf *bytes.Buffer) error { return WriteChrome(buf, goldenCycleSpans()) }},
		{"golden wall", func(buf *bytes.Buffer) error { return WriteChromeWall(buf, w.Spans(), w.Dropped()) }},
		{"escaped names", func(buf *bytes.Buffer) error { return WriteChrome(buf, escaped) }},
	} {
		var got bytes.Buffer
		if err := tc.write(&got); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var compact, want bytes.Buffer
		if err := json.Compact(&compact, got.Bytes()); err != nil {
			t.Fatalf("%s: export is not JSON: %v\n%s", tc.name, err, got.Bytes())
		}
		if err := json.Indent(&want, compact.Bytes(), "", " "); err != nil {
			t.Fatal(err)
		}
		want.WriteByte('\n')
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s: streamed export\n%s\nwant the indented document\n%s", tc.name, got.Bytes(), want.Bytes())
		}
	}
}
