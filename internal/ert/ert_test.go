package ert

import (
	"math/rand"
	"runtime"
	"testing"

	"casa/internal/dna"
	"casa/internal/smem"
)

func testConfig() Config {
	return Config{K: 7, MinSMEM: 7, MaxDepth: 64}
}

func randSeq(rng *rand.Rand, n int) dna.Sequence {
	s := make(dna.Sequence, n)
	for i := range s {
		s[i] = dna.Base(rng.Intn(4))
	}
	return s
}

func plantedRead(rng *rand.Rand, ref dna.Sequence, length, mutations int) dna.Sequence {
	start := rng.Intn(len(ref) - length)
	read := ref[start : start+length].Clone()
	for m := 0; m < mutations; m++ {
		read[rng.Intn(length)] = dna.Base(rng.Intn(4))
	}
	return read
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default invalid: %v", err)
	}
	bad := []Config{
		{K: 0, MinSMEM: 19, MaxDepth: 100},
		{K: 15, MinSMEM: 10, MaxDepth: 100},
		{K: 15, MinSMEM: 19, MaxDepth: 15},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestBuildCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ref := randSeq(rng, 2000)
	ix, err := Build(ref, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Distinct k-mer count must match a direct enumeration.
	want := make(map[dna.Kmer]bool)
	for i := 0; i+7 <= len(ref); i++ {
		want[dna.PackKmer(ref, i, 7)] = true
	}
	if ix.Roots() != len(want) {
		t.Errorf("Roots = %d, want %d", ix.Roots(), len(want))
	}
	if ix.Nodes() < ix.Roots() {
		t.Errorf("fewer nodes (%d) than roots (%d)", ix.Nodes(), ix.Roots())
	}
	if ix.HeapBytes() <= 0 {
		t.Error("HeapBytes must be positive")
	}
}

func TestWalkHitsMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ref := randSeq(rng, 1200)
	ix, err := Build(ref, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	count := func(pat dna.Sequence) int {
		n := 0
	outer:
		for i := 0; i+len(pat) <= len(ref); i++ {
			for j, b := range pat {
				if ref[i+j] != b {
					continue outer
				}
			}
			n++
		}
		return n
	}
	for trial := 0; trial < 60; trial++ {
		read := plantedRead(rng, ref, 40, rng.Intn(4))
		steps := ix.walk(read, 0)
		for _, st := range steps {
			if got, want := st.hits, count(read[:st.end+1]); got != want {
				t.Fatalf("walk hits at end %d = %d, want %d (read %s)", st.end, got, want, read)
			}
		}
		// One base past the last step must not occur.
		if len(steps) > 0 {
			last := steps[len(steps)-1].end
			if last+1 < len(read) && count(read[:last+2]) != 0 {
				t.Fatalf("walk stopped early at %d for %s", last, read)
			}
		}
	}
}

func TestFindSMEMsMatchesGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 15; trial++ {
		ref := randSeq(rng, 400+rng.Intn(600))
		ix, err := Build(ref, testConfig())
		if err != nil {
			t.Fatal(err)
		}
		golden := smem.BruteForce{Ref: ref}
		for r := 0; r < 6; r++ {
			read := plantedRead(rng, ref, 40+rng.Intn(40), rng.Intn(5))
			want := golden.FindSMEMs(read, 7)
			got := ix.FindSMEMs(read, 7)
			if !smem.Equal(want, got) {
				t.Fatalf("trial %d read %d:\n got %v\nwant %v\nread %s\nref %s",
					trial, r, got, want, read, ref)
			}
		}
	}
}

func TestFindSMEMsRepetitive(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	unit := randSeq(rng, 9)
	var ref dna.Sequence
	for i := 0; i < 50; i++ {
		ref = append(ref, unit...)
		if i%5 == 0 {
			ref = append(ref, randSeq(rng, 6)...)
		}
	}
	// Shallow MaxDepth forces the fat-leaf path.
	cfg := Config{K: 7, MinSMEM: 7, MaxDepth: 12}
	ix, err := Build(ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	golden := smem.BruteForce{Ref: ref}
	for r := 0; r < 12; r++ {
		read := plantedRead(rng, ref, 45, rng.Intn(3))
		want := golden.FindSMEMs(read, 7)
		got := ix.FindSMEMs(read, 7)
		if !smem.Equal(want, got) {
			t.Fatalf("read %d:\n got %v\nwant %v", r, got, want)
		}
	}
}

func TestStatsAccumulate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ref := randSeq(rng, 1000)
	ix, err := Build(ref, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ix.FindSMEMs(plantedRead(rng, ref, 50, 1), 7)
	s := ix.Stats
	if s.Reads != 1 || s.Pivots == 0 || s.IndexFetches == 0 || s.NodeFetches == 0 {
		t.Errorf("stats not accumulated: %+v", s)
	}
}

func TestAcceleratorSeedReads(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ref := randSeq(rng, 3000)
	cfg := DefaultAccelConfig()
	cfg.Index = testConfig()
	a, err := NewAccelerator(ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var reads []dna.Sequence
	for i := 0; i < 20; i++ {
		reads = append(reads, plantedRead(rng, ref, 50, rng.Intn(3)))
	}
	res := a.SeedReads(reads)
	if len(res.Reads) != len(reads) || len(res.Rev) != len(reads) {
		t.Fatal("result count mismatch")
	}
	if res.Seconds <= 0 || res.Throughput <= 0 {
		t.Errorf("no time modelled: %+v", res.Seconds)
	}
	if res.DRAM.RandomAccesses == 0 {
		t.Error("ERT must issue random DRAM accesses (tree fetches)")
	}
	if res.CacheHits+res.CacheMiss == 0 {
		t.Error("reuse cache never consulted")
	}
	if res.Energy.PowerW() <= 12 {
		t.Errorf("ERT power = %.1f W; must exceed on-chip floor", res.Energy.PowerW())
	}
	if res.ReadsPerMJ <= 0 {
		t.Error("energy efficiency missing")
	}
	// Behavioural cross-check against golden on a sample.
	golden := smem.BruteForce{Ref: ref}
	for i := 0; i < 5; i++ {
		want := golden.FindSMEMs(reads[i], cfg.Index.MinSMEM)
		if !smem.Equal(want, res.Reads[i]) {
			t.Fatalf("read %d: %v vs golden %v", i, res.Reads[i], want)
		}
	}
}

func TestCacheReuseAcrossReads(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ref := randSeq(rng, 2000)
	cfg := DefaultAccelConfig()
	cfg.Index = testConfig()
	a, err := NewAccelerator(ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	read := plantedRead(rng, ref, 60, 0)
	// The same read twice: the second pass must hit the cache heavily.
	res := a.SeedReads([]dna.Sequence{read, read})
	if res.CacheHits == 0 {
		t.Error("duplicate reads produced no cache hits")
	}
}

// TestCloneAllocatesNoCache bounds what one per-worker Clone allocates:
// the reuse cache exists only in Reduce's replay, so a clone is a few
// headers over the shared trees, not a cache pre-sized for the default
// 4 MB capacity (65,536 entries).
func TestCloneAllocatesNoCache(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	cfg := DefaultAccelConfig()
	cfg.Index = testConfig()
	a, err := NewAccelerator(randSeq(rng, 2000), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c := a.Clone()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(c)
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Errorf("Clone allocated %d bytes, want under %d", got, 64<<10)
	}
}

// TestReduceAllocatesForBatch bounds what Reduce allocates for a 16-read
// batch: its reuse-cache replay is sized to the batch's own pivot k-mers,
// not pre-sized for the default 4 MB capacity (65,536 entries, about
// 2.4 MB of table), and both strands share one reverse-complement buffer.
func TestReduceAllocatesForBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cfg := DefaultAccelConfig()
	cfg.Index = testConfig()
	ref := randSeq(rng, 4000)
	a, err := NewAccelerator(ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	reads := make([]dna.Sequence, 16)
	for i := range reads {
		reads[i] = plantedRead(rng, ref, 101, 2)
	}
	act := a.Seed(reads)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res := a.Reduce(act)
	runtime.ReadMemStats(&after)
	if res.CacheHits+res.CacheMiss != int64(16*2*(101-cfg.Index.K+1)) {
		t.Fatalf("replayed %d accesses, want one per pivot k-mer per strand", res.CacheHits+res.CacheMiss)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 256<<10 {
		t.Errorf("Reduce allocated %d bytes for 16 reads, want under %d", got, 256<<10)
	}
}

func TestLRU(t *testing.T) {
	c := newLRU(2, 8)
	if c.access(1) {
		t.Error("cold access hit")
	}
	if !c.access(1) {
		t.Error("warm access missed")
	}
	c.access(2)
	c.access(3) // evicts 1 (LRU)
	if c.access(1) {
		t.Error("evicted key still present")
	}
	if !c.access(3) {
		t.Error("recent key evicted")
	}
}

func TestLRUCapacityOne(t *testing.T) {
	c := newLRU(0, 8) // clamped to 1
	c.access(1)
	c.access(2)
	if c.access(1) {
		t.Error("capacity-1 cache held two keys")
	}
}
