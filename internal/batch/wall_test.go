package batch_test

import (
	"testing"

	"casa/internal/batch"
	"casa/internal/engine"
	"casa/internal/trace"
)

// TestSeedEngineWallSpans pins the batch layer's wall-profiling contract:
// with Options.Wall set, every claimed shard yields exactly one span on
// its worker's process with the engine name as the track, shard spans
// jointly cover every read exactly once, and the sequential reduce phase
// lands on the host process — at any worker count.
func TestSeedEngineWallSpans(t *testing.T) {
	ref, reads := testWorkload(t, 1<<14, 120)
	e, err := engine.New("cpu", ref, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const grain = 10
	wantShards := (len(reads) + grain - 1) / grain
	for _, w := range workerCounts {
		wall := trace.NewWall(0)
		batch.SeedEngine(e, reads, batch.Options{Workers: w, Grain: grain, Wall: wall})
		if wall.Dropped() != 0 {
			t.Fatalf("workers=%d: ring dropped %d spans", w, wall.Dropped())
		}
		workers, others := trace.WallWorkers(wall.Spans())

		seen := make([]bool, wantShards)
		totalShards, totalReads := 0, 0
		for _, st := range workers {
			if st.Worker < 0 || st.Worker >= w {
				t.Fatalf("workers=%d: span proc %q outside the pool", w, st.Proc)
			}
			totalShards += st.Shards
			totalReads += st.Reads
		}
		if totalShards != wantShards {
			t.Fatalf("workers=%d: %d shard spans, want %d", w, totalShards, wantShards)
		}
		if totalReads != len(reads) {
			t.Fatalf("workers=%d: shard spans cover %d reads, want %d", w, totalReads, len(reads))
		}
		// Every shard index appears exactly once, with its exact range.
		for _, s := range wall.Spans() {
			if s.Track != "cpu" && s.Proc != trace.WallHostProc {
				t.Fatalf("workers=%d: span track %q, want engine name \"cpu\"", w, s.Track)
			}
			shard, lo, hi, ok := trace.ParseWallShardName(s.Name)
			if !ok {
				continue
			}
			if shard < 0 || shard >= wantShards || seen[shard] {
				t.Fatalf("workers=%d: shard %d recorded twice or out of range", w, shard)
			}
			seen[shard] = true
			if lo != shard*grain || hi != min(shard*grain+grain, len(reads)) {
				t.Fatalf("workers=%d: shard %d covers [%d,%d), want [%d,%d)",
					w, shard, lo, hi, shard*grain, min(shard*grain+grain, len(reads)))
			}
		}
		// The sequential epilogue recorded its reduce phase on the host proc.
		var reduces int
		for _, s := range others {
			if s.Proc == trace.WallHostProc && s.Name == "reduce" {
				reduces++
			}
		}
		if reduces != 1 {
			t.Fatalf("workers=%d: %d reduce spans on %q, want 1", w, reduces, trace.WallHostProc)
		}
	}
}

// TestSeedEngineWallOffByDefault: a run without Wall must record nothing
// and remain the allocation-free hot path the throughput tests pin.
func TestSeedEngineWallOffByDefault(t *testing.T) {
	ref, reads := testWorkload(t, 1<<13, 20)
	e, err := engine.New("cpu", ref, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	batch.SeedEngine(e, reads, batch.Options{Workers: 2})
	// Compiles to the nil-sink path; nothing observable to assert beyond
	// not panicking, but the ReadBase offset and the default engine
	// track below need coverage too.
	fm, err := engine.New("fmindex", ref, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wall := trace.NewWall(0)
	batch.SeedEngine(fm, reads, batch.Options{Workers: 2, Grain: 5, Wall: wall, ReadBase: 1000})
	var shardSpans, reduces int
	for _, s := range wall.Spans() {
		if _, lo, hi, ok := trace.ParseWallShardName(s.Name); ok {
			shardSpans++
			if lo < 1000 || hi > 1000+len(reads) {
				t.Fatalf("shard range [%d,%d) ignores ReadBase 1000", lo, hi)
			}
			if s.Track != "fmindex" {
				t.Fatalf("shard span track %q, want default engine \"fmindex\"", s.Track)
			}
		}
		if s.Name == "reduce" && s.Proc == trace.WallHostProc {
			reduces++
		}
	}
	if wantShards := (len(reads) + 4) / 5; shardSpans != wantShards {
		t.Fatalf("%d shard spans, want %d", shardSpans, wantShards)
	}
	if reduces != 1 {
		t.Fatalf("%d reduce spans, want 1", reduces)
	}
}
