package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"casa/internal/dna"
	"casa/internal/smem"
)

func TestNewPartitioning(t *testing.T) {
	cfg := testConfig()
	cfg.PartitionBases = 1000
	ref := make(dna.Sequence, 3500)
	a, err := NewWithOverlap(ref, cfg, 100)
	if err != nil {
		t.Fatal(err)
	}
	// step 900: starts 0, 900, 1800, 2700 -> ends 1000,1900,2800,3500.
	if a.Partitions() != 4 {
		t.Fatalf("partitions = %d, want 4", a.Partitions())
	}
	if got := len(a.Partition(3).Ref()); got != 800 {
		t.Errorf("last partition length = %d, want 800", got)
	}
}

func TestNewErrors(t *testing.T) {
	cfg := testConfig()
	if _, err := New(nil, cfg); err == nil {
		t.Error("empty reference accepted")
	}
	if _, err := NewWithOverlap(make(dna.Sequence, 100), cfg, cfg.PartitionBases); err == nil {
		t.Error("overlap >= partition accepted")
	}
	bad := cfg
	bad.K = 0
	if _, err := New(make(dna.Sequence, 100), bad); err == nil {
		t.Error("invalid config accepted")
	}
}

// TestNewWithOverlapDeterministic builds the same multi-partition
// reference at GOMAXPROCS 1 and 4: the partitions build concurrently, so
// the index bytes must not depend on how many run at once.
func TestNewWithOverlapDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	cfg := testConfig()
	cfg.PartitionBases = 2000
	ref := repeatRich(rand.New(rand.NewSource(9)), 13001)
	var index [2][]byte
	for i, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		a, err := NewWithOverlap(ref, cfg, 150)
		if err != nil {
			t.Fatal(err)
		}
		if a.Partitions() != 7 {
			t.Fatalf("partitions = %d, want 7", a.Partitions())
		}
		var buf bytes.Buffer
		if err := a.WriteIndex(&buf); err != nil {
			t.Fatal(err)
		}
		index[i] = buf.Bytes()
	}
	if !bytes.Equal(index[0], index[1]) {
		t.Error("WriteIndex bytes differ between GOMAXPROCS 1 and 4")
	}

	// Failing builds report the lowest-index error, whichever finishes
	// first.
	runtime.GOMAXPROCS(4)
	for trial := range 20 {
		_, err := buildConcurrently(9, func(i int) (*Partition, error) {
			if i == 3 || i == 4 || i == 8 {
				return nil, fmt.Errorf("partition %d failed", i)
			}
			return &Partition{}, nil
		})
		if err == nil || err.Error() != "partition 3 failed" {
			t.Fatalf("trial %d: error %v, want partition 3's", trial, err)
		}
	}
	parts, err := buildConcurrently(9, func(i int) (*Partition, error) {
		return &Partition{ref: make(dna.Sequence, i)}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range parts {
		if len(p.ref) != i {
			t.Fatalf("slot %d holds partition %d", i, len(p.ref))
		}
	}
}

func TestSeedReadsMatchesWholeGenomeGolden(t *testing.T) {
	// Partitioned seeding with overlap >= read length, merged across
	// partitions, must reproduce the whole-reference SMEM set exactly
	// (intervals; hit counts can double-count occurrences inside the
	// overlap region). This is the paper's §6 validation claim. The
	// exact-match prepass is disabled: its read retirement intentionally
	// skips the non-matching strand of resolved reads (tested separately
	// in TestSeedReadsExactRetirement).
	rng := rand.New(rand.NewSource(1))
	cfg := testConfig()
	cfg.ExactMatchPrepass = false
	cfg.PartitionBases = 700
	ref := randSeq(rng, 3000)
	const readLen = 50
	a, err := NewWithOverlap(ref, cfg, readLen)
	if err != nil {
		t.Fatal(err)
	}
	golden := smem.BruteForce{Ref: ref}
	var reads []dna.Sequence
	for i := 0; i < 25; i++ {
		reads = append(reads, plantedRead(rng, ref, readLen, rng.Intn(4)))
	}
	res := a.SeedReads(reads)
	for i, read := range reads {
		want := golden.FindSMEMs(read, cfg.MinSMEM)
		got := res.Reads[i].Forward
		if !smem.SameIntervals(want, got) {
			t.Fatalf("read %d forward:\n got %v\nwant %v", i, got, want)
		}
		wantR := golden.FindSMEMs(read.ReverseComplement(), cfg.MinSMEM)
		if !smem.SameIntervals(wantR, res.Reads[i].Reverse) {
			t.Fatalf("read %d reverse:\n got %v\nwant %v", i, res.Reads[i].Reverse, wantR)
		}
	}
}

func TestSeedReadsExactRetirement(t *testing.T) {
	// With the prepass on, an exactly matching read retires at its first
	// matching partition: the matching strand reports the full-read SMEM
	// with that partition's hits; the other strand reports nothing.
	rng := rand.New(rand.NewSource(7))
	cfg := testConfig()
	cfg.PartitionBases = 700
	ref := randSeq(rng, 2500)
	a, err := NewWithOverlap(ref, cfg, 60)
	if err != nil {
		t.Fatal(err)
	}
	exact := ref[300:360].Clone()        // forward exact
	revRead := exact.ReverseComplement() // reverse-strand exact
	inexact := plantedRead(rng, ref, 60, 3)
	res := a.SeedReads([]dna.Sequence{exact, revRead, inexact})

	if got := res.Reads[0].Forward; len(got) != 1 || got[0].Start != 0 || got[0].End != 59 {
		t.Errorf("exact forward read: %v", got)
	}
	if got := res.Reads[0].Reverse; got != nil {
		t.Errorf("retired read's reverse strand reported %v", got)
	}
	if got := res.Reads[1].Reverse; len(got) != 1 || got[0].End != 59 {
		t.Errorf("reverse-exact read: %v", got)
	}
	// The inexact read still gets full SMEMs on both strands.
	golden := smem.BruteForce{Ref: ref}
	if want := golden.FindSMEMs(inexact, cfg.MinSMEM); !smem.SameIntervals(want, res.Reads[2].Forward) {
		t.Errorf("inexact forward: got %v want %v", res.Reads[2].Forward, want)
	}
	if res.Stats.ReadsExact < 2 {
		t.Errorf("ReadsExact = %d, want >= 2", res.Stats.ReadsExact)
	}
}

func TestMergeSMEMs(t *testing.T) {
	in := []smem.Match{
		{Start: 5, End: 30, Hits: 2},
		{Start: 5, End: 30, Hits: 1}, // duplicate: hits sum
		{Start: 6, End: 29, Hits: 1}, // contained: dropped
		{Start: 0, End: 10, Hits: 1}, // distinct: kept
	}
	got := appendMergedSMEMs(nil, in)
	want := []smem.Match{{Start: 0, End: 10, Hits: 1}, {Start: 5, End: 30, Hits: 3}}
	if !smem.Equal(got, want) {
		t.Errorf("appendMergedSMEMs = %v, want %v", got, want)
	}
	if appendMergedSMEMs(nil, nil) != nil {
		t.Error("appendMergedSMEMs(nil, nil) != nil")
	}
}

func TestResultTimingAndThroughput(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cfg := testConfig()
	ref := randSeq(rng, 5000)
	a, err := New(ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var reads []dna.Sequence
	for i := 0; i < 40; i++ {
		reads = append(reads, plantedRead(rng, ref, 60, rng.Intn(3)))
	}
	res := a.SeedReads(reads)
	if res.Seconds <= 0 || res.Cycles <= 0 {
		t.Fatalf("no time modelled: %+v", res)
	}
	if res.Throughput() <= 0 {
		t.Error("throughput must be positive")
	}
	if got := res.Throughput() * res.Seconds; int(got+0.5) != len(reads) {
		t.Errorf("throughput x time = %.1f reads, want %d", got, len(reads))
	}
	if res.DRAM.BytesRead <= 0 {
		t.Error("no DRAM traffic recorded")
	}
	if res.ReadsPerMJ() <= 0 {
		t.Error("energy efficiency must be positive")
	}
}

func TestResultEnergyBreakdown(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cfg := testConfig()
	ref := randSeq(rng, 5000)
	a, err := New(ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var reads []dna.Sequence
	for i := 0; i < 20; i++ {
		reads = append(reads, plantedRead(rng, ref, 60, 1))
	}
	res := a.SeedReads(reads)
	r := res.Energy
	if r.PowerW() <= 0 {
		t.Fatal("no power modelled")
	}
	// Components the breakdown must include.
	for _, name := range []string{
		"pre-seeding filter: mini index",
		"pre-seeding filter: tag array",
		"pre-seeding filter: data array",
		"computing CAMs",
		"pre-seeding controller",
		"computing controllers",
		"DDR4",
		"DRAM controller PHY",
	} {
		found := false
		for _, c := range r.Components {
			if c.Name == name {
				found = true
			}
		}
		if !found {
			t.Errorf("component %q missing from the breakdown", name)
		}
	}
	if r.AreaMM2() <= 0 {
		t.Error("no area modelled")
	}
}

func TestPaperGeometryAreaMatchesTable4(t *testing.T) {
	// With the paper's full dimensions, the area synthesized from Table 3
	// macros must land near Table 4: filter ~188 mm^2, computing CAMs
	// ~90 mm^2, total ~297 mm^2.
	rng := rand.New(rand.NewSource(4))
	cfg := DefaultConfig()
	ref := randSeq(rng, 1<<16) // small text; area depends on capacity, not content
	a, err := New(ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := a.SeedReads([]dna.Sequence{plantedRead(rng, ref, 101, 1)})
	var filter, cams float64
	for _, c := range res.Energy.Components {
		switch c.Name {
		case "pre-seeding filter: mini index", "pre-seeding filter: tag array", "pre-seeding filter: data array":
			filter += c.AreaMM2
		case "computing CAMs":
			cams += c.AreaMM2
		}
	}
	if filter < 150 || filter > 230 {
		t.Errorf("filter area = %.1f mm^2, Table 4 says 188.4", filter)
	}
	if cams < 70 || cams > 110 {
		t.Errorf("computing CAM area = %.1f mm^2, Table 4 says 90.3", cams)
	}
	total := res.Energy.AreaMM2()
	if total < 240 || total > 360 {
		t.Errorf("total area = %.1f mm^2, Table 4 says 296.6", total)
	}
}

func TestStatsAggregation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cfg := testConfig()
	cfg.PartitionBases = 1000
	ref := randSeq(rng, 2500)
	a, err := New(ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	reads := []dna.Sequence{plantedRead(rng, ref, 50, 1)}
	res := a.SeedReads(reads)
	// Each read is seeded on both strands against every partition.
	want := int64(2 * a.Partitions())
	if res.Stats.ReadsSeeded != want {
		t.Errorf("ReadsSeeded = %d, want %d", res.Stats.ReadsSeeded, want)
	}
	// Aggregate must equal the sum over partitions.
	var sum PartStats
	for i := 0; i < a.Partitions(); i++ {
		sum.add(a.Partition(i).Stats)
	}
	if res.Stats != sum {
		t.Errorf("aggregate stats mismatch:\n res %+v\n sum %+v", res.Stats, sum)
	}
}

func TestAblationThroughputOrdering(t *testing.T) {
	// Filtering and the exact-match prepass must not slow CASA down.
	rng := rand.New(rand.NewSource(6))
	cfg := testConfig()
	cfg.PartitionBases = 2000
	ref := randSeq(rng, 8000)
	var reads []dna.Sequence
	for i := 0; i < 30; i++ {
		reads = append(reads, plantedRead(rng, ref, 60, rng.Intn(2)))
	}
	run := func(mutate func(*Config)) float64 {
		c := cfg
		mutate(&c)
		a, err := New(ref, c)
		if err != nil {
			t.Fatal(err)
		}
		return a.SeedReads(reads).Throughput()
	}
	full := run(func(c *Config) {})
	naive := run(func(c *Config) {
		c.UseFilterTable = false
		c.UseAnalysis = false
		c.ExactMatchPrepass = false
	})
	if full < naive {
		t.Errorf("full CASA (%.0f reads/s) slower than naive (%.0f reads/s)", full, naive)
	}
}

// TestSeedingChargesFilter requires the pre-seeding filter's lookups to
// reach the seeded activity that the cycle and energy models read: on
// planted reads the Result's filter counters are nonzero and equal what
// every partition's filter counted, built, cloned and loaded alike.
func TestSeedingChargesFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	cfg := testConfig()
	cfg.PartitionBases = 1000
	ref := randSeq(rng, 3000)
	built, err := New(ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := built.WriteIndex(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var reads []dna.Sequence
	for range 20 {
		reads = append(reads, plantedRead(rng, ref, 60, rng.Intn(3)))
	}
	for name, a := range map[string]*Accelerator{"built": built, "clone": built.Clone(), "loaded": loaded} {
		res := a.SeedReads(reads)
		var counted FilterStats
		for _, p := range a.parts {
			counted.add(*p.filter.Stats)
		}
		got := res.Stats.Filter
		if got.Lookups == 0 || got.TagRowsEnabled == 0 {
			t.Errorf("%s: seeding charged no filter activity: %+v", name, got)
		}
		if got != counted {
			t.Errorf("%s: seeded activity charges %+v, the filters counted %+v", name, got, counted)
		}
	}
}

// TestReadLimitAtACut seeds exact reads that start one base before the
// second partition: at overlap+1 bases such a read ends on the first
// partition's last base, lies whole inside it, and seeds to the SMEMs of
// a single-partition accelerator; at overlap+2 it spans the cut, which
// MaxReadLen refuses, and the partitioned run loses its whole-read SMEM.
func TestReadLimitAtACut(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	cfg := testConfig()
	cfg.ExactMatchPrepass = false
	cfg.PartitionBases = 700
	const overlap = 60
	ref := randSeq(rng, 2000)
	cut, err := NewWithOverlap(ref, cfg, overlap)
	if err != nil {
		t.Fatal(err)
	}
	whole := cfg
	whole.PartitionBases = len(ref)
	one, err := NewWithOverlap(ref, whole, overlap)
	if err != nil {
		t.Fatal(err)
	}
	if cut.Partitions() < 2 || cut.MaxReadLen() != overlap+1 || one.MaxReadLen() != 0 {
		t.Fatalf("%d partitions limit %d, one partition limit %d", cut.Partitions(), cut.MaxReadLen(), one.MaxReadLen())
	}
	second := cfg.PartitionBases - overlap // the second partition's first base
	for _, n := range []int{overlap + 1, overlap + 2} {
		read := ref[second-1 : second-1+n]
		got, want := cut.SeedReads([]dna.Sequence{read}).Reads[0], one.SeedReads([]dna.Sequence{read}).Reads[0]
		same := smem.SameIntervals(want.Forward, got.Forward) && smem.SameIntervals(want.Reverse, got.Reverse)
		if fits := n <= cut.MaxReadLen(); same != fits {
			t.Errorf("%d-base read: within the limit %v, SMEMs equal to one partition's %v\n got %v\nwant %v", n, fits, same, got.Forward, want.Forward)
		}
	}
}

// hitPositionsSetOracle is HitPositions deduplicating through a set of
// the positions reported so far.
func hitPositionsSetOracle(a *Accelerator, read dna.Sequence, m smem.Match, max int) []int32 {
	kmer := dna.PackKmer(read, m.Start, a.cfg.K)
	seen := make(map[int32]bool)
	var out []int32
	for pi, p := range a.parts {
		for _, pos := range p.filter.Positions(kmer) {
			g := int32(a.starts[pi]) + pos
			if seen[g] || p.lce(read, m.Start+a.cfg.K, int(pos)+a.cfg.K) < m.Len()-a.cfg.K {
				continue
			}
			seen[g] = true
			out = append(out, g)
			if max > 0 && len(out) >= max {
				return out
			}
		}
	}
	return out
}

// TestHitPositionsMatchesSetOracle requires HitPositions to return the
// set oracle's positions in its order, under its max cut, on a
// repeat-rich reference cut with no overlap, overlaps shorter than the
// step, and overlaps so deep that a match lies in up to six partitions.
func TestHitPositionsMatchesSetOracle(t *testing.T) {
	cfg := testConfig()
	cfg.PartitionBases = 300
	rng := rand.New(rand.NewSource(43))
	ref := repeatRich(rng, 4000)
	deep := false
	for _, overlap := range []int{0, 40, 150, 250} {
		a, err := NewWithOverlap(ref, cfg, overlap)
		if err != nil {
			t.Fatal(err)
		}
		for range 200 {
			start := rng.Intn(len(ref) - 60)
			read := append(dna.Sequence(nil), ref[start:start+60]...)
			if rng.Intn(2) == 0 {
				read[rng.Intn(len(read))] = dna.Base(rng.Intn(4))
			}
			s := rng.Intn(len(read) - cfg.K + 1)
			m := smem.Match{Start: s, End: s + cfg.K - 1 + rng.Intn(len(read)-s-cfg.K+1)}
			for _, max := range []int{0, 1, 5} {
				got, want := a.HitPositions(read, m, max), hitPositionsSetOracle(a, read, m, max)
				if i := firstDiff(got, want); i >= 0 {
					t.Fatalf("overlap %d, %v, max %d: HitPositions gave %d positions, the set oracle %d; they differ first at %d",
						overlap, m, max, len(got), len(want), i)
				}
			}
			deep = deep || overlap > cfg.PartitionBases/2 && len(hitPositionsSetOracle(a, read, m, 0)) > 1
		}
	}
	if !deep {
		t.Fatal("no match with several hits at an overlap deeper than the step")
	}
}

// TestHitPositionsAllocatesOnlyResult requires HitPositions to allocate
// nothing but the slice it returns, which grows by append: an SMEM with
// about 500 hits across five partitions and their overlaps.
func TestHitPositionsAllocatesOnlyResult(t *testing.T) {
	cfg := testConfig()
	cfg.PartitionBases = 1000
	ref := tandemRepeat(randSeq(rand.New(rand.NewSource(44)), 10), 5000)
	a, err := NewWithOverlap(ref, cfg, 100)
	if err != nil {
		t.Fatal(err)
	}
	read, m := ref[:30], smem.Match{Start: 0, End: 29}
	hits := a.HitPositions(read, m, 0)
	if len(hits) < 400 {
		t.Fatalf("%d hits, want about 500", len(hits))
	}
	growths := 0
	var grown []int32
	for range hits {
		if len(grown) == cap(grown) {
			growths++
		}
		grown = append(grown, 0)
	}
	if allocs := testing.AllocsPerRun(20, func() { a.HitPositions(read, m, 0) }); allocs > float64(growths) {
		t.Errorf("HitPositions of %d hits made %.0f allocations, want at most the result's %d", len(hits), allocs, growths)
	}
}

// firstDiff returns the first index at which a and b differ, or -1 when
// they are equal.
func firstDiff(a, b []int32) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// BenchmarkNewAccelerator builds casa on an 8 Mbase random reference at
// the paper's geometry, as casa-align does on the bench reference: two 4
// Mbase partitions and a 200-base tail, built concurrently on up to
// GOMAXPROCS goroutines.
func BenchmarkNewAccelerator(b *testing.B) {
	cfg := DefaultConfig()
	ref := randSeq(rand.New(rand.NewSource(45)), 8<<20)
	b.SetBytes(int64(len(ref)))
	b.ReportAllocs()
	for b.Loop() {
		a, err := New(ref, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if a.Partitions() != 3 {
			b.Fatalf("%d partitions, want 3", a.Partitions())
		}
	}
}
