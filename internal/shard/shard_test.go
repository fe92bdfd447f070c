package shard_test

import (
	"bytes"
	"strings"
	"testing"

	"casa/internal/batch"
	"casa/internal/dna"
	"casa/internal/engine"
	"casa/internal/readsim"
	"casa/internal/shard"
	"casa/internal/smem"
	"casa/internal/trace"
)

func testWorkload(t *testing.T, refLen, reads int) (dna.Sequence, []dna.Sequence) {
	t.Helper()
	ref := readsim.GenerateReference(readsim.DefaultGenome(refLen, 11))
	rs := readsim.Sequences(readsim.Simulate(ref, readsim.DefaultProfile(reads, 13)))
	return ref, rs
}

func seedAll(t *testing.T, e engine.Engine, reads []dna.Sequence) [][]smem.Match {
	t.Helper()
	c := e.Clone()
	act := c.SeedTrace(reads, nil, 0)
	return c.SMEMs(c.Reduce(reads, []engine.Activity{act}))
}

// TestShardedMatchesFlat pins the acceptance criterion: for every
// engine with a sharded composite, the composite's per-read SMEM sets
// are bit-identical to the flat engine's at shard counts 1, 2 and 5
// (Exact mode, where the inner engines' outputs are defined to be the
// exact SMEM sets).
func TestShardedMatchesFlat(t *testing.T) {
	ref, reads := testWorkload(t, 1<<14, 24)
	for _, f := range engine.List() {
		if _, ok := engine.Lookup("sharded:" + f.Name); f.Golden || !ok {
			continue
		}
		opt := engine.Options{MinSMEM: 19, TableK: 8, Exact: true}
		flat, err := engine.New(f.Name, ref, opt)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		want := seedAll(t, flat, reads)
		for _, shards := range []int{1, 2, 5} {
			sopt := opt
			sopt.Shards = shards
			sharded, err := engine.New("sharded:"+f.Name, ref, sopt)
			if err != nil {
				t.Fatalf("sharded:%s shards=%d: %v", f.Name, shards, err)
			}
			got := seedAll(t, sharded, reads)
			for i := range reads {
				if !smem.Equal(want[i], got[i]) {
					t.Fatalf("sharded:%s shards=%d read %d:\nflat    %v\nsharded %v",
						f.Name, shards, i, want[i], got[i])
				}
			}
		}
	}
}

// TestShardedWorkerCounts drives the sharded engines through the batch
// pool at worker counts 1, 4 and 16 and requires bit-identical results
// each time (the pool's determinism contract must survive composition).
func TestShardedWorkerCounts(t *testing.T) {
	ref, reads := testWorkload(t, 1<<14, 32)
	for _, name := range []string{"sharded:casa", "sharded:cpu", "sharded:fmindex"} {
		e, err := engine.New(name, ref, engine.Options{MinSMEM: 19, Shards: 3})
		if err != nil {
			t.Fatal(err)
		}
		var want [][]smem.Match
		for _, workers := range []int{1, 4, 16} {
			res := batch.SeedEngine(e, reads, batch.Options{Workers: workers, Grain: 4})
			got := e.SMEMs(res)
			if want == nil {
				want = got
				continue
			}
			for i := range reads {
				if !smem.Equal(want[i], got[i]) {
					t.Fatalf("%s workers=%d read %d: results differ", name, workers, i)
				}
			}
		}
	}
}

// TestShardedSeedReadIntoMatchesReduce requires the per-read hot path
// and the batch Reduce path to merge identically.
func TestShardedSeedReadIntoMatchesReduce(t *testing.T) {
	ref, reads := testWorkload(t, 1<<14, 16)
	for _, name := range []string{"sharded:casa", "sharded:cpu", "sharded:fmindex"} {
		e, err := engine.New(name, ref, engine.Options{MinSMEM: 19, Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		rs, ok := e.Clone().(engine.ReadSeeder)
		if !ok {
			t.Fatalf("%s: no ReadSeeder", name)
		}
		want := seedAll(t, e, reads)
		var seeds engine.Seeds
		for i, read := range reads {
			if !rs.SeedReadInto(&seeds, read) {
				t.Fatalf("%s: SeedReadInto refused", name)
			}
			if !smem.Equal(want[i], seeds.Forward) {
				t.Fatalf("%s read %d:\nreduce %v\nhot    %v", name, i, want[i], seeds.Forward)
			}
		}
	}
}

// The brute-backed composite must refuse the hot path (brute allocates
// by design) without touching dst.
func TestShardedSeedReadIntoRefusal(t *testing.T) {
	ref, reads := testWorkload(t, 1<<12, 2)
	e, err := engine.New("sharded:brute", ref, engine.Options{MinSMEM: 19})
	if err != nil {
		t.Fatal(err)
	}
	rs, ok := e.(engine.ReadSeeder)
	if !ok {
		t.Fatal("sharded engines expose ReadSeeder unconditionally")
	}
	seeds := engine.Seeds{Forward: []smem.Match{{Start: 1, End: 2, Hits: 3}}}
	if rs.SeedReadInto(&seeds, reads[0]) {
		t.Fatal("sharded:brute accepted the hot path")
	}
	if len(seeds.Forward) != 1 || seeds.Forward[0].Hits != 3 {
		t.Fatal("refusal mutated dst")
	}
}

// TestShardedIndexRoundTrip pins persistence through the composite:
// save a sharded index, load it, and require identical SMEMs — without
// the reference in reach of the loaded instance.
func TestShardedIndexRoundTrip(t *testing.T) {
	ref, reads := testWorkload(t, 1<<14, 12)
	for _, name := range []string{"sharded:casa", "sharded:cpu", "sharded:fmindex"} {
		opt := engine.Options{MinSMEM: 19, Shards: 3}
		built, err := engine.New(name, ref, opt)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := engine.SaveIndex(&buf, built, opt, nil); err != nil {
			t.Fatalf("%s: SaveIndex: %v", name, err)
		}
		loaded, hdr, err := engine.LoadIndex(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: LoadIndex: %v", name, err)
		}
		if hdr.Engine != name || hdr.Shards != 3 {
			t.Fatalf("%s: header %+v", name, hdr)
		}
		if loaded.(*shard.Sharded).Shards() != built.(*shard.Sharded).Shards() {
			t.Fatalf("%s: shard count changed across the round trip", name)
		}
		want := seedAll(t, built, reads)
		got := seedAll(t, loaded, reads)
		for i := range reads {
			if !smem.Equal(want[i], got[i]) {
				t.Fatalf("%s read %d: loaded index disagrees", name, i)
			}
		}
	}
}

// TestGeometryInvariants checks the shard layout directly: full
// coverage, pairwise-only overlap, and windows bounded by the overlap.
func TestGeometryInvariants(t *testing.T) {
	for _, tc := range []struct{ n, shards, overlap int }{
		{0, 2, 512}, {1, 2, 512}, {100, 5, 512}, {1 << 14, 5, 512},
		{1 << 14, 1, 512}, {1 << 16, 7, 100}, {1000, 100, 16}, {513, 2, 512},
	} {
		ref := make(dna.Sequence, tc.n)
		e, err := engine.New("sharded:fmindex", ref, engine.Options{
			MinSMEM: 19, Shards: tc.shards, ShardOverlap: tc.overlap,
		})
		if tc.n == 0 {
			// Engines reject empty references flat and sharded alike;
			// either outcome just must not panic.
			continue
		}
		if err != nil {
			t.Fatalf("n=%d shards=%d overlap=%d: %v", tc.n, tc.shards, tc.overlap, err)
		}
		s := e.(*shard.Sharded)
		if got := s.Shards(); got < 1 || got > max(tc.shards, 1) {
			t.Errorf("n=%d shards=%d: built %d shards", tc.n, tc.shards, got)
		}
	}
}

// TestShardedTraceSpans checks the composite's own spans validate and
// carry the shard geometry in their names.
func TestShardedTraceSpans(t *testing.T) {
	ref, reads := testWorkload(t, 1<<13, 4)
	e, err := engine.New("sharded:fmindex", ref, engine.Options{MinSMEM: 19, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(trace.PolicyAll, 0)
	res := batch.SeedEngine(e, reads, batch.Options{Workers: 2, Grain: 2, Trace: tr})
	if got := e.SMEMs(res); len(got) != len(reads) {
		t.Fatalf("%d results", len(got))
	}
	spans := tr.Spans()
	if err := trace.Validate(spans); err != nil {
		t.Fatalf("spans do not validate: %v", err)
	}
	var shardSpans int
	for _, sp := range spans {
		if sp.Track == "shard" {
			shardSpans++
			if !strings.Contains(sp.Name, "shard ") || !strings.Contains(sp.Name, "[") {
				t.Fatalf("span name %q does not carry the geometry", sp.Name)
			}
		}
	}
	if want := len(reads) * e.(*shard.Sharded).Shards(); shardSpans != want {
		t.Fatalf("%d shard spans, want %d", shardSpans, want)
	}
}
