package genax

import (
	"math/rand"
	"testing"

	"casa/internal/dna"
	"casa/internal/smem"
)

func testConfig() Config {
	c := DefaultConfig()
	c.K = 6
	c.MinSMEM = 6
	c.PartitionBases = 1 << 16
	return c
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
	for i, bad := range []Config{
		{K: 0, MinSMEM: 19, Lanes: 1, PartitionBases: 100, ClockHz: 1},
		{K: 16, MinSMEM: 19, Lanes: 1, PartitionBases: 100, ClockHz: 1},
		{K: 12, MinSMEM: 11, Lanes: 1, PartitionBases: 100, ClockHz: 1},
		{K: 12, MinSMEM: 19, Lanes: 0, PartitionBases: 100, ClockHz: 1},
		{K: 12, MinSMEM: 19, Lanes: 1, PartitionBases: 5, ClockHz: 1},
		{K: 12, MinSMEM: 19, Lanes: 1, PartitionBases: 100, ClockHz: 0},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestSeedTableLookup(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cfg := testConfig()
	ref := randSeq(rng, 3000)
	tb, err := BuildTables(ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[dna.Kmer][]int32)
	for i := 0; i+cfg.K <= len(ref); i++ {
		km := dna.PackKmer(ref, i, cfg.K)
		counts[km] = append(counts[km], int32(i))
	}
	for km, want := range counts {
		got := tb.lookup(km)
		if len(got) != len(want) {
			t.Fatalf("lookup(%s) = %d positions, want %d", dna.KmerString(km, cfg.K), len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("lookup(%s)[%d] = %d, want %d", dna.KmerString(km, cfg.K), i, got[i], want[i])
			}
		}
	}
	// Absent k-mer: empty, still one fetch.
	before := tb.Stats.Fetches
	var absent dna.Kmer
	for len(counts[absent]) > 0 {
		absent++
	}
	if got := tb.lookup(absent); len(got) != 0 {
		t.Errorf("absent k-mer returned %v", got)
	}
	if tb.Stats.Fetches != before+1 {
		t.Error("fetch not charged")
	}
}

func TestIntersectOffset(t *testing.T) {
	a := []int32{1, 5, 9, 20}
	b := []int32{7, 11, 30}
	got := intersectOffset(a, b, 2)
	if len(got) != 2 || got[0] != 5 || got[1] != 9 {
		t.Errorf("intersectOffset = %v, want [5 9]", got)
	}
	if r := intersectOffset(nil, b, 0); len(r) != 0 {
		t.Errorf("empty a: %v", r)
	}
	if r := intersectOffset(a, nil, 0); len(r) != 0 {
		t.Errorf("empty b: %v", r)
	}
}

func TestFindSMEMsMatchesGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cfg := testConfig()
	for trial := 0; trial < 15; trial++ {
		ref := randSeq(rng, 400+rng.Intn(600))
		tb, err := BuildTables(ref, cfg)
		if err != nil {
			t.Fatal(err)
		}
		golden := smem.BruteForce{Ref: ref}
		for r := 0; r < 6; r++ {
			read := plantedRead(rng, ref, 40+rng.Intn(40), rng.Intn(5))
			want := golden.FindSMEMs(read, cfg.MinSMEM)
			got := tb.FindSMEMs(read, cfg.MinSMEM)
			if !smem.Equal(want, got) {
				t.Fatalf("trial %d read %d:\n got %v\nwant %v\nread %s", trial, r, got, want, read)
			}
		}
	}
}

func TestFindSMEMsRepetitive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cfg := testConfig()
	unit := randSeq(rng, 8)
	var ref dna.Sequence
	for i := 0; i < 60; i++ {
		ref = append(ref, unit...)
		if i%6 == 0 {
			ref = append(ref, randSeq(rng, 5)...)
		}
	}
	tb, err := BuildTables(ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	golden := smem.BruteForce{Ref: ref}
	for r := 0; r < 12; r++ {
		read := plantedRead(rng, ref, 50, rng.Intn(3))
		want := golden.FindSMEMs(read, cfg.MinSMEM)
		got := tb.FindSMEMs(read, cfg.MinSMEM)
		if !smem.Equal(want, got) {
			t.Fatalf("read %d:\n got %v\nwant %v", r, got, want)
		}
	}
}

func TestEveryPivotFetches(t *testing.T) {
	// GenAx's defining cost: no pre-filter, every pivot fetches at least
	// the first k-mer (§2.2).
	rng := rand.New(rand.NewSource(4))
	cfg := testConfig()
	ref := randSeq(rng, 2000)
	tb, err := BuildTables(ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	read := randSeq(rng, 60)
	tb.FindSMEMs(read, cfg.MinSMEM)
	pivots := int64(len(read) - cfg.K + 1)
	if tb.Stats.Pivots != pivots {
		t.Errorf("Pivots = %d, want %d", tb.Stats.Pivots, pivots)
	}
	if tb.Stats.Fetches < pivots {
		t.Errorf("Fetches = %d < pivots %d", tb.Stats.Fetches, pivots)
	}
}

func TestAcceleratorMatchesWholeGenomeGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cfg := testConfig()
	cfg.PartitionBases = 700
	ref := randSeq(rng, 2500)
	a, err := NewWithOverlap(ref, cfg, 50)
	if err != nil {
		t.Fatal(err)
	}
	if a.Segments() < 3 {
		t.Fatalf("expected multiple segments, got %d", a.Segments())
	}
	golden := smem.BruteForce{Ref: ref}
	var reads []dna.Sequence
	for i := 0; i < 15; i++ {
		reads = append(reads, plantedRead(rng, ref, 50, rng.Intn(4)))
	}
	res := a.SeedReads(reads)
	for i, read := range reads {
		want := golden.FindSMEMs(read, cfg.MinSMEM)
		if !smem.SameIntervals(want, res.Reads[i]) {
			t.Fatalf("read %d:\n got %v\nwant %v", i, res.Reads[i], want)
		}
	}
}

func TestAcceleratorTimingAndEnergy(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	cfg := testConfig()
	ref := randSeq(rng, 5000)
	a, err := New(ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var reads []dna.Sequence
	for i := 0; i < 20; i++ {
		reads = append(reads, plantedRead(rng, ref, 50, rng.Intn(3)))
	}
	res := a.SeedReads(reads)
	if res.Seconds <= 0 || res.Throughput <= 0 || res.ReadsPerMJ <= 0 {
		t.Fatalf("model outputs missing: %+v", res.Seconds)
	}
	if res.Stats.IntersectionOps == 0 {
		t.Error("no intersections counted")
	}
	if res.Energy.PowerW() <= 0 {
		t.Error("no power modelled")
	}
	if res.DRAM.BytesRead <= 0 {
		t.Error("no DRAM traffic")
	}
}

func TestSRAMBytesPaperScale(t *testing.T) {
	// GenAx's published setup: 68 MB SRAM for the 12-mer tables over a
	// 1.5 MB (6 Mbase) segment. 4^12 x 4B + 6M x 4B = 88 MB is the right
	// order; the paper's 68 MB packs positions tighter. Accept the band.
	got := float64(DefaultConfig().SRAMBytes()) / (1 << 20)
	if got < 50 || got > 100 {
		t.Errorf("SRAM = %.1f MB, want the ~68 MB scale", got)
	}
}

func TestNewErrors(t *testing.T) {
	cfg := testConfig()
	if _, err := New(nil, cfg); err == nil {
		t.Error("empty ref accepted")
	}
	if _, err := NewWithOverlap(make(dna.Sequence, 10), cfg, cfg.PartitionBases); err == nil {
		t.Error("bad overlap accepted")
	}
}

// TestReadLimitAtACut seeds exact reads that start one base before the
// second segment: at overlap+1 bases such a read ends on the first
// segment's last base, lies whole inside it, and seeds to the SMEMs of a
// single-segment accelerator; at overlap+2 it spans the cut, which
// MaxReadLen refuses, and the segmented run loses its whole-read SMEM.
func TestReadLimitAtACut(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	cfg := testConfig()
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
	if cut.Segments() < 2 || cut.MaxReadLen() != overlap+1 || one.MaxReadLen() != 0 {
		t.Fatalf("%d segments limit %d, one segment limit %d", cut.Segments(), cut.MaxReadLen(), one.MaxReadLen())
	}
	second := cfg.PartitionBases - overlap // the second segment's first base
	for _, n := range []int{overlap + 1, overlap + 2} {
		read := ref[second-1 : second-1+n]
		got, want := cut.SeedReads([]dna.Sequence{read}), one.SeedReads([]dna.Sequence{read})
		same := smem.SameIntervals(want.Reads[0], got.Reads[0]) && smem.SameIntervals(want.Rev[0], got.Rev[0])
		if fits := n <= cut.MaxReadLen(); same != fits {
			t.Errorf("%d-base read: within the limit %v, SMEMs equal to one segment's %v\n got %v\nwant %v", n, fits, same, got.Reads[0], want.Reads[0])
		}
	}
}
