package trace

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
)

// emitRead records a two-span read timeline (a "work" span and a "tail"
// span) with a total duration derived from the read index.
func emitRead(b *Buffer, read int, total int64) {
	b.Emit(read, "seed", "fwd", 0, total/2)
	b.Emit(read, "seed", "rev", total/2, total-total/2)
}

func TestParsePolicy(t *testing.T) {
	good := map[string]Policy{
		"":           PolicyAll,
		"all":        PolicyAll,
		"head:10":    {Kind: "head", N: 10},
		"slowest:3":  {Kind: "slowest", N: 3},
		"slowest:#1": {}, // replaced below
	}
	delete(good, "slowest:#1")
	for in, want := range good {
		got, err := ParsePolicy(in)
		if err != nil {
			t.Fatalf("ParsePolicy(%q): %v", in, err)
		}
		if got != want {
			t.Errorf("ParsePolicy(%q) = %+v, want %+v", in, got, want)
		}
	}
	for _, bad := range []string{"head", "head:", "head:0", "head:-1", "slowest:x", "tail:5"} {
		if _, err := ParsePolicy(bad); err == nil {
			t.Errorf("ParsePolicy(%q): want error", bad)
		}
	}
	if got := (Policy{Kind: "head", N: 7}).String(); got != "head:7" {
		t.Errorf("String() = %q", got)
	}
}

func TestSamplingPolicies(t *testing.T) {
	build := func(policy Policy) []Span {
		tr := New(policy, 0)
		b := tr.NewBuffer("eng")
		// Reads 0..9; read r's timeline is 100-10r cycles long, so the
		// slowest reads are the LOWEST indices (distinct from head order
		// only in ranking, so give read 7 an outlier timeline).
		for r := 0; r < 10; r++ {
			total := int64(100 - 10*r)
			if r == 7 {
				total = 1000
			}
			emitRead(b, r, total)
		}
		b.EmitSystem("io", "io", 0, 42)
		return tr.Spans()
	}

	reads := func(spans []Span) map[int32]bool {
		set := map[int32]bool{}
		for _, s := range spans {
			if s.Read != SystemRead {
				set[s.Read] = true
			}
		}
		return set
	}

	all := build(PolicyAll)
	if len(reads(all)) != 10 {
		t.Fatalf("all: got %d reads, want 10", len(reads(all)))
	}

	head := build(Policy{Kind: "head", N: 3})
	if got := reads(head); len(got) != 3 || !got[0] || !got[1] || !got[2] {
		t.Fatalf("head:3 selected %v", got)
	}

	slow := build(Policy{Kind: "slowest", N: 3})
	// Slowest three timelines: read 7 (1000), read 0 (100), read 1 (90).
	if got := reads(slow); len(got) != 3 || !got[7] || !got[0] || !got[1] {
		t.Fatalf("slowest:3 selected %v", got)
	}

	// System spans survive every policy.
	for name, spans := range map[string][]Span{"head": head, "slowest": slow} {
		found := false
		for _, s := range spans {
			if s.Read == SystemRead {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: system span dropped", name)
		}
	}
}

// TestHeadSamplingAtEmit records 40 reads in shards of 3 claimed round
// robin by 4 worker buffers, each shard's reads emitted twice in turn
// (as the sharded engine emits one pass per reference shard): under
// head:N each buffer stops taking reads after N of them, and the merged
// stream is the one head:N selects from the full recording.
func TestHeadSamplingAtEmit(t *testing.T) {
	record := func(policy Policy) (*Trace, []*Buffer) {
		tr := New(policy, 0)
		bs := make([]*Buffer, 4)
		for i := range bs {
			bs[i] = tr.NewBuffer("eng")
		}
		bs[0].EmitSystem("io", "io", 0, 1)
		for shard := 0; shard*3 < 40; shard++ {
			b := bs[shard%len(bs)]
			for pass := 0; pass < 2; pass++ {
				for r := shard * 3; r < min(shard*3+3, 40); r++ {
					b.Emit(r, "seed", fmt.Sprintf("p%d", pass), int64(pass), 1)
				}
			}
		}
		return tr, bs
	}
	full, _ := record(PolicyAll)
	for _, n := range []int{1, 5, 12, 40} {
		policy := Policy{Kind: "head", N: n}
		tr, bs := record(policy)
		for i, b := range bs {
			if b.Len() > 1+2*n {
				t.Errorf("head:%d buffer %d holds %d spans, want at most %d", n, i, b.Len(), 1+2*n)
			}
		}
		var got, want bytes.Buffer
		if err := WriteChrome(&got, tr.Spans()); err != nil {
			t.Fatal(err)
		}
		if err := WriteChrome(&want, policy.apply(full.Spans())); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("head:%d trace differs from sampling the full recording:\n got %s\nwant %s", n, got.Bytes(), want.Bytes())
		}
	}
}

func TestRingEvictsOldestWholeReads(t *testing.T) {
	tr := New(PolicyAll, 5) // room for two 2-span reads + 1 system span
	b := tr.NewBuffer("eng")
	b.EmitSystem("io", "io", 0, 1)
	for r := 0; r < 4; r++ {
		emitRead(b, r, 10)
	}
	spans := tr.Spans()
	if len(spans) > 5 {
		t.Fatalf("ring kept %d spans, capacity 5", len(spans))
	}
	got := map[int32]int{}
	for _, s := range spans {
		got[s.Read]++
	}
	if got[SystemRead] != 1 {
		t.Fatalf("system span evicted: %v", got)
	}
	// The newest reads survive whole; the oldest are gone entirely.
	if got[0] != 0 || got[1] != 0 || got[2] != 2 || got[3] != 2 {
		t.Fatalf("eviction not whole-read oldest-first: %v", got)
	}
}

func TestNilTraceAndBufferAreNoOps(t *testing.T) {
	var tr *Trace
	b := tr.NewBuffer("eng")
	if b != nil {
		t.Fatal("nil Trace must hand out nil buffers")
	}
	b.Emit(0, "seed", "fwd", 0, 10) // must not panic
	b.EmitSystem("io", "io", 0, 1)
	if b.Len() != 0 {
		t.Fatal("nil buffer reported spans")
	}
	if got := tr.Spans(); got != nil {
		t.Fatalf("nil Trace.Spans() = %v", got)
	}
}

// TestSpansReplacesBuffers: Spans moves the buffers' spans into the
// merged stream, so they are held once; a second call returns the same
// stream, spans recorded afterwards merge into a new one, and a stream
// returned earlier is left as it was.
func TestSpansReplacesBuffers(t *testing.T) {
	tr := New(PolicyAll, 0)
	a, b := tr.NewBuffer("eng"), tr.NewBuffer("eng")
	if got := tr.Spans(); got == nil || len(got) != 0 {
		t.Fatalf("Spans before any span = %v, want empty and not nil", got)
	}
	emitRead(b, 1, 10)
	emitRead(a, 0, 10)
	first := tr.Spans()
	if len(first) != 4 || a.Len() != 0 || b.Len() != 0 {
		t.Fatalf("merged %d spans, buffers still hold %d and %d", len(first), a.Len(), b.Len())
	}
	kept := slices.Clone(first)
	if again := tr.Spans(); !slices.Equal(again, first) {
		t.Fatalf("second Spans %v, first %v", again, first)
	}
	emitRead(a, 2, 10)
	emitRead(b, 3, 10)
	all := tr.Spans()
	if !slices.Equal(first, kept) {
		t.Fatalf("a later merge changed an earlier stream: %v, was %v", first, kept)
	}
	for i, s := range all {
		if s.Read != int32(i/2) {
			t.Fatalf("span %d is read %d after the second merge: %v", i, s.Read, all)
		}
	}
}

func TestMergeDeterministicAcrossSharding(t *testing.T) {
	// The same 20 reads recorded through 1, 4 and 16 buffers (contiguous
	// shards) must merge to identical streams and identical export bytes.
	record := func(buffers int) *Trace {
		tr := New(PolicyAll, 0)
		bs := make([]*Buffer, buffers)
		for i := range bs {
			bs[i] = tr.NewBuffer("eng")
		}
		per := (20 + buffers - 1) / buffers
		for r := 0; r < 20; r++ {
			emitRead(bs[min(r/per, buffers-1)], r, int64(50+r))
		}
		return tr
	}
	chrome := func(tr *Trace) []byte {
		var buf bytes.Buffer
		if err := WriteChrome(&buf, tr.Spans()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	want := chrome(record(1))
	for _, n := range []int{4, 16} {
		if got := chrome(record(n)); !bytes.Equal(got, want) {
			t.Errorf("%d buffers: chrome bytes differ from sequential", n)
		}
	}
}

func TestChromeRoundTrip(t *testing.T) {
	tr := New(PolicyAll, 0)
	b := tr.NewBuffer("casa")
	b.Emit(0, "exact", "p00", 0, 10)
	b.Emit(0, "exact", "exact", 0, 10)
	b.Emit(0, "smem", "p00", 10, 30)
	b.Emit(1, "exact", "p00", 0, 5)
	p := tr.NewBuffer("pipeline:CASA+SeedEx")
	p.EmitSystem("io", "io", 0, 100)
	p.EmitSystem("seeding", "seeding", 100, 400)

	spans := tr.Spans()
	var buf bytes.Buffer
	if err := WriteChrome(&buf, spans); err != nil {
		t.Fatal(err)
	}
	back, err := ParseChrome(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(spans) {
		t.Fatalf("round trip: %d spans, want %d", len(back), len(spans))
	}
	// Durations, names, tracks, procs and read keys survive exactly;
	// read-span timestamps come back with base offsets applied.
	for i := range back {
		if back[i].Proc != spans[i].Proc || back[i].Track != spans[i].Track ||
			back[i].Name != spans[i].Name || back[i].Read != spans[i].Read ||
			back[i].Dur != spans[i].Dur {
			t.Fatalf("span %d: %+v != %+v", i, back[i], spans[i])
		}
	}
	// Read 1 is offset past read 0's 40-cycle timeline.
	if back[3].Start != 40 {
		t.Fatalf("read 1 base offset = %d, want 40", back[3].Start)
	}
	if err := Validate(back); err != nil {
		t.Fatal(err)
	}

	for _, bad := range []string{
		`{"otherData":{"schema":"bogus/v9"}}`,
		`{"otherData":{"schema":"casa-walltrace/v1"}}`,
		"{\"schema\":\"casa-trace/v1\"}\n{\"proc\":\"eng\"}\n", // a JSONL stream
	} {
		if _, err := ParseChrome([]byte(bad)); err == nil {
			t.Errorf("ParseChrome accepted %q", bad)
		}
	}
}

func TestValidateCatchesViolations(t *testing.T) {
	ok := []Span{
		{Proc: "e", Track: "t", Name: "parent", Start: 0, Dur: 10},
		{Proc: "e", Track: "t", Name: "child", Start: 0, Dur: 4},
		{Proc: "e", Track: "t", Name: "child", Start: 4, Dur: 6},
		{Proc: "e", Track: "t", Name: "next", Start: 10, Dur: 1},
	}
	if err := Validate(ok); err != nil {
		t.Fatalf("valid stream rejected: %v", err)
	}
	bad := [][]Span{
		{{Proc: "e", Track: "t", Start: 0, Dur: -1}},                                           // negative dur
		{{Proc: "e", Track: "t", Start: -2, Dur: 1}},                                           // negative start
		{{Proc: "e", Track: "t", Start: 5, Dur: 1}, {Proc: "e", Track: "t", Start: 2, Dur: 1}}, // regression
		{{Proc: "e", Track: "t", Start: 0, Dur: 5}, {Proc: "e", Track: "t", Start: 3, Dur: 5}}, // partial overlap
	}
	for i, spans := range bad {
		if err := Validate(spans); err == nil {
			t.Errorf("bad stream %d accepted", i)
		}
	}
}
