package batch_test

import (
	"bytes"
	"testing"

	"casa/internal/batch"
	"casa/internal/core"
	"casa/internal/engine"
	"casa/internal/trace"
)

func chromeBytes(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, tr.Spans()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBatchTraceDeterminism is the registry-wide trace regression: for
// every registered engine, the merged span stream exported as Chrome JSON
// must be byte-identical at workers = 1, 4, 16 — the same discipline
// TestBatchMetricsDeterminism enforces for the metrics registry — and
// structurally valid (casa-trace/v1 invariants).
func TestBatchTraceDeterminism(t *testing.T) {
	ref, reads := testWorkload(t, 1<<15, 150)
	for _, e := range testEngines(t, ref) {
		seq := trace.New(trace.PolicyAll, 0)
		batch.SeedEngine(e, reads, batch.Options{Workers: 1, Trace: seq})
		spans := seq.Spans()
		if len(spans) == 0 {
			t.Fatalf("%s: sequential run emitted no spans", e.Name())
		}
		covered := map[int32]bool{}
		for _, s := range spans {
			if s.Proc != e.Name() {
				t.Fatalf("%s: span labelled proc %q", e.Name(), s.Proc)
			}
			covered[s.Read] = true
		}
		if len(covered) != len(reads) {
			t.Errorf("%s: spans cover %d reads, want %d", e.Name(), len(covered), len(reads))
		}
		if err := trace.Validate(spans); err != nil {
			t.Errorf("%s: recorded stream invalid: %v", e.Name(), err)
		}
		want := chromeBytes(t, seq)
		if _, err := trace.ParseChrome(want); err != nil {
			t.Errorf("%s: exported Chrome JSON does not parse back: %v", e.Name(), err)
		}
		for _, w := range workerCounts[1:] {
			tr := trace.New(trace.PolicyAll, 0)
			batch.SeedEngine(e, reads, batch.Options{Workers: w, Trace: tr})
			if !bytes.Equal(chromeBytes(t, tr), want) {
				t.Errorf("%s workers=%d: Chrome trace not byte-identical to sequential", e.Name(), w)
			}
		}
	}
}

// TestCASATraceStructure pins the casa span layout: per read, the "exact"
// and "smem" stage spans tile the read's timeline back to back, and every
// per-partition sub-span falls inside its read's stage window.
func TestCASATraceStructure(t *testing.T) {
	ref, reads := testWorkload(t, 1<<15, 60)
	cfg := core.DefaultConfig()
	cfg.PartitionBases = 1 << 13
	acc, err := core.New(ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(trace.PolicyAll, 0)
	batch.SeedEngine(engine.CASA(acc), reads, batch.Options{Workers: 4, Trace: tr})

	type window struct{ start, end int64 }
	stage := map[int32]map[string]window{} // read -> stage track -> window
	var parts []trace.Span
	for _, s := range tr.Spans() {
		switch s.Track {
		case "exact", "smem":
			if stage[s.Read] == nil {
				stage[s.Read] = map[string]window{}
			}
			stage[s.Read][s.Track] = window{s.Start, s.End()}
		default:
			parts = append(parts, s)
		}
	}
	for r, w := range stage {
		ex, hasEx := w["exact"]
		sm, hasSm := w["smem"]
		if !hasEx || !hasSm {
			t.Fatalf("read %d: missing stage span (exact=%v smem=%v)", r, hasEx, hasSm)
		}
		if ex.start != 0 || sm.start != ex.end {
			t.Errorf("read %d: stages not tiled: exact [%d,%d) smem [%d,%d)",
				r, ex.start, ex.end, sm.start, sm.end)
		}
	}
	for _, p := range parts {
		w, ok := stage[p.Read][p.Name] // sub-span name is its stage
		if !ok {
			t.Fatalf("read %d: partition span %q on %s has no stage window", p.Read, p.Name, p.Track)
		}
		if p.Start < w.start || p.End() > w.end {
			t.Errorf("read %d: partition span %s/%s [%d,%d) outside stage window [%d,%d)",
				p.Read, p.Track, p.Name, p.Start, p.End(), w.start, w.end)
		}
	}
}

// TestTraceSamplingInBatch checks the head/slowest policies against a real
// engine run: the sampled trace keeps exactly N reads and stays valid.
func TestTraceSamplingInBatch(t *testing.T) {
	ref, reads := testWorkload(t, 1<<15, 80)
	cfg := core.DefaultConfig()
	cfg.PartitionBases = 1 << 13
	acc, err := core.New(ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range []trace.Policy{
		{Kind: "head", N: 10},
		{Kind: "slowest", N: 10},
	} {
		tr := trace.New(policy, 0)
		batch.SeedEngine(engine.CASA(acc), reads, batch.Options{Workers: 4, Trace: tr})
		spans := tr.Spans()
		got := map[int32]bool{}
		for _, s := range spans {
			got[s.Read] = true
		}
		if len(got) != 10 {
			t.Errorf("%s: sampled %d reads, want 10", policy, len(got))
		}
		if err := trace.Validate(spans); err != nil {
			t.Errorf("%s: sampled stream invalid: %v", policy, err)
		}
	}
}
