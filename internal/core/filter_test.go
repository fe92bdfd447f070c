package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"casa/internal/dna"
)

// testConfig returns a small-geometry config suitable for unit tests:
// k=7, m=4, stride 5, 4 groups.
func testConfig() Config {
	c := DefaultConfig()
	c.K = 7
	c.M = 4
	c.MinSMEM = 7
	c.Stride = 5
	c.Groups = 4
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

func TestBuildFilterRejectsBadConfig(t *testing.T) {
	c := testConfig()
	c.K = 0
	if _, err := BuildFilter(dna.FromString("ACGT"), c); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestBuildFilterRejectsOversizedPartition(t *testing.T) {
	c := testConfig()
	c.PartitionBases = 8
	c.Stride = 5
	if _, err := BuildFilter(make(dna.Sequence, 100), c); err == nil {
		t.Error("oversized partition accepted")
	}
}

func TestFilterNoFalseNegativesOrPositives(t *testing.T) {
	// §4.1: "the proposed pre-seeding filter table avoids k-mer false
	// positives or misses, unlike the bloom filter in GenCache."
	rng := rand.New(rand.NewSource(1))
	cfg := testConfig()
	part := randSeq(rng, 3000)
	f, err := BuildFilter(part, cfg)
	if err != nil {
		t.Fatal(err)
	}
	present := make(map[dna.Kmer]bool)
	for i := 0; i+cfg.K <= len(part); i++ {
		present[dna.PackKmer(part, i, cfg.K)] = true
	}
	// Every present k-mer must be found.
	for km := range present {
		if _, ok := f.Lookup(km); !ok {
			t.Fatalf("false negative for %s", dna.KmerString(km, cfg.K))
		}
	}
	// Random absent k-mers must not be found.
	for trial := 0; trial < 2000; trial++ {
		km := dna.Kmer(rng.Intn(dna.NumKmers(cfg.K)))
		if _, ok := f.Lookup(km); ok != present[km] {
			t.Fatalf("lookup(%s) = %v, want %v", dna.KmerString(km, cfg.K), ok, present[km])
		}
	}
	if f.DistinctKmers() != len(present) {
		t.Errorf("DistinctKmers = %d, want %d", f.DistinctKmers(), len(present))
	}
}

func TestFilterIndicatorsMatchOccurrences(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cfg := testConfig()
	part := randSeq(rng, 2000)
	f, err := BuildFilter(part, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+cfg.K <= len(part); i += 17 {
		km := dna.PackKmer(part, i, cfg.K)
		starts, ok := f.Lookup(km)
		if !ok {
			t.Fatalf("present k-mer missing")
		}
		// Recompute the expected indicator from all occurrences.
		positions := f.Positions(km)
		want := indicatorOf(positions, cfg)
		got := indicator{starts, occupiedGroups(positions, cfg)}
		if got != want {
			t.Fatalf("indicator mismatch at %d: %+v vs %+v", i, got, want)
		}
		// This occurrence's own offsets must be present.
		if got.starts&(1<<uint(i%cfg.Stride)) == 0 {
			t.Fatalf("own start offset missing at %d", i)
		}
		if got.groups&(1<<uint((i/cfg.Stride)%cfg.Groups)) == 0 {
			t.Fatalf("own group missing at %d", i)
		}
	}
}

func TestFilterPositionsSortedAndComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cfg := testConfig()
	// Repetitive text: many multi-occurrence k-mers.
	unit := randSeq(rng, 13)
	var part dna.Sequence
	for i := 0; i < 60; i++ {
		part = append(part, unit...)
		part = append(part, randSeq(rng, 3)...)
	}
	f, err := BuildFilter(part, cfg)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[dna.Kmer]int)
	for i := 0; i+cfg.K <= len(part); i++ {
		counts[dna.PackKmer(part, i, cfg.K)]++
	}
	for km, want := range counts {
		pos := f.Positions(km)
		if len(pos) != want {
			t.Fatalf("positions(%s) = %d, want %d", dna.KmerString(km, cfg.K), len(pos), want)
		}
		for j := 1; j < len(pos); j++ {
			if pos[j] <= pos[j-1] {
				t.Fatal("positions not sorted")
			}
		}
		for _, p := range pos {
			if !part[p : int(p)+cfg.K].Equal(dna.FromString(dna.KmerString(km, cfg.K))) {
				t.Fatalf("position %d does not hold the k-mer", p)
			}
		}
	}
}

func TestFilterStatsAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cfg := testConfig()
	part := randSeq(rng, 1000)
	f, err := BuildFilter(part, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.Lookup(dna.PackKmer(part, 0, cfg.K)) // hit
	missing := dna.Kmer(0)
	for f.Positions(missing) != nil {
		missing++
	}
	f.Lookup(missing) // miss
	s := *f.Stats
	if s.Lookups != 2 || s.MiniAccesses != 2 || s.TagSearches != 2 {
		t.Errorf("lookup counts wrong: %+v", s)
	}
	if s.Hits != 1 || s.DataAccesses != 1 {
		t.Errorf("hit accounting wrong: %+v", s)
	}
	// Gated tag search: enabled rows must be bounded by the largest
	// m-mer bucket, far below the total number of tags.
	if s.TagRowsEnabled > int64(f.DistinctKmers()) {
		t.Errorf("range decoder gating ineffective: %d rows for %d tags",
			s.TagRowsEnabled, f.DistinctKmers())
	}
	// Positions must not charge stats.
	before := *f.Stats
	f.Positions(dna.PackKmer(part, 0, cfg.K))
	if *f.Stats != before {
		t.Error("Positions charged filter stats")
	}
}

func TestFilterContains(t *testing.T) {
	cfg := testConfig()
	part := dna.FromString("ACGTACGTACGTACG")
	f, err := BuildFilter(part, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Contains(dna.PackKmer(part, 0, cfg.K)) {
		t.Error("present k-mer not contained")
	}
	if f.Contains(dna.PackKmer(dna.FromString("TTTTTTT"), 0, cfg.K)) {
		t.Error("absent k-mer contained")
	}
}

func TestFilterTinyPartition(t *testing.T) {
	cfg := testConfig()
	// Exactly one k-mer.
	part := dna.FromString("ACGTACG")
	f, err := BuildFilter(part, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if f.DistinctKmers() != 1 {
		t.Errorf("DistinctKmers = %d", f.DistinctKmers())
	}
	// Shorter than k: empty filter.
	f2, err := BuildFilter(dna.FromString("ACG"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if f2.DistinctKmers() != 0 {
		t.Errorf("short partition has %d k-mers", f2.DistinctKmers())
	}
}

func TestFilterDefaultGeometryWorks(t *testing.T) {
	// Full k=19/m=10 geometry on a small but realistic partition.
	rng := rand.New(rand.NewSource(5))
	cfg := DefaultConfig()
	cfg.PartitionBases = 1 << 20
	part := randSeq(rng, 200000)
	f, err := BuildFilter(part, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+cfg.K <= len(part); i += 997 {
		if _, ok := f.Lookup(dna.PackKmer(part, i, cfg.K)); !ok {
			t.Fatalf("false negative at %d with default geometry", i)
		}
	}
}

// indicator is a k-mer's search indicator as the paper's data array holds
// it: the start mask and the group mask, accumulated one occurrence at a
// time by addOccurrence. The filter must hold its start mask, and
// occupiedGroups of its positions must equal its group mask.
type indicator struct{ starts, groups uint64 }

// addOccurrence records an occurrence at partition position x.
func (s indicator) addOccurrence(x int, cfg Config) indicator {
	s.starts |= 1 << uint(x%cfg.Stride)
	s.groups |= 1 << uint((x/cfg.Stride)%cfg.Groups)
	return s
}

// indicatorOf accumulates the indicator of a k-mer's occurrences.
func indicatorOf(positions []int32, cfg Config) indicator {
	var s indicator
	for _, pos := range positions {
		s = s.addOccurrence(int(pos), cfg)
	}
	return s
}

// buildFilterSortOracle is the filter build before the counting sort: it
// sorts the (k-mer, position) pairs once and reads the tables off the
// sorted pairs. It is kept as the oracle the radix-sort build must
// reproduce table for table. It also returns each tag's full indicator.
func buildFilterSortOracle(part dna.Sequence, cfg Config) (*Filter, []indicator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	type pair struct {
		kmer uint64
		pos  int32
	}
	pairs := make([]pair, max(len(part)-cfg.K+1, 0))
	for x := range pairs {
		pairs[x] = pair{uint64(dna.PackKmer(part, x, cfg.K)), int32(x)}
	}
	slices.SortFunc(pairs, func(a, b pair) int {
		if c := cmp.Compare(a.kmer, b.kmer); c != 0 {
			return c
		}
		return cmp.Compare(a.pos, b.pos)
	})

	distinct := 0
	for i, p := range pairs {
		if i == 0 || p.kmer != pairs[i-1].kmer {
			distinct++
		}
	}
	f := &Filter{
		cfg:       cfg,
		mini:      make([]miniEntry, dna.NumKmers(cfg.M)+1),
		tags:      make([]uint32, 0, distinct),
		data:      make([]uint64, 0, distinct),
		posIndex:  make([]int32, 0, distinct+1),
		positions: make([]int32, len(pairs)),
	}
	f.initDerived()
	inds := make([]indicator, 0, distinct)
	for i, p := range pairs {
		kmer := p.kmer
		if i == 0 || kmer != pairs[i-1].kmer {
			f.tags = append(f.tags, uint32(kmer&f.suffixMask))
			inds = append(inds, indicator{})
			f.posIndex = append(f.posIndex, int32(i))
			f.mini[kmer>>f.suffixBits+1].start++ // counted here, summed below
			f.mini[kmer>>f.suffixBits].summary |= 1 << summaryBit(uint32(kmer&f.suffixMask))
		}
		last := len(inds) - 1
		inds[last] = inds[last].addOccurrence(int(p.pos), cfg)
		f.positions[i] = p.pos
	}
	for _, ind := range inds {
		f.data = append(f.data, ind.starts)
	}
	f.posIndex = append(f.posIndex, int32(len(pairs)))
	for p := 1; p < len(f.mini); p++ {
		f.mini[p].start += f.mini[p-1].start
	}
	return f, inds, nil
}

// sameTables reports the first of the five filter tables on which got and
// want differ, or "" when all are equal. Each of got's tables must also be
// sized exactly, as the oracle's are.
func sameTables(got, want *Filter) string {
	switch {
	case !slices.Equal(got.mini, want.mini):
		return "mini index"
	case !slices.Equal(got.tags, want.tags) || cap(got.tags) != len(want.tags):
		return "tags"
	case !slices.Equal(got.data, want.data) || cap(got.data) != len(want.data):
		return "search indicators"
	case !slices.Equal(got.posIndex, want.posIndex) || cap(got.posIndex) != len(want.posIndex):
		return "posIndex"
	case !slices.Equal(got.positions, want.positions) || cap(got.positions) != len(want.positions):
		return "positions"
	}
	return ""
}

// checkAgainstOracle builds part both ways and fails on any table that
// differs, or on a tag whose positions' occupiedGroups is not the
// oracle's group mask.
func checkAgainstOracle(t *testing.T, name string, part dna.Sequence, cfg Config) *Filter {
	t.Helper()
	want, inds, err := buildFilterSortOracle(part, cfg)
	if err != nil {
		t.Fatalf("%s: oracle: %v", name, err)
	}
	got, err := BuildFilter(part, cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if table := sameTables(got, want); table != "" {
		t.Fatalf("%s (k=%d m=%d, %d bases): %s differ from the sort oracle", name, cfg.K, cfg.M, len(part), table)
	}
	for i, ind := range inds {
		if groups := occupiedGroups(got.positionsAt(int32(i)), cfg); groups != ind.groups {
			t.Fatalf("%s (k=%d m=%d, %d bases): tag %d occupies groups %b, the oracle's group mask is %b",
				name, cfg.K, cfg.M, len(part), i, groups, ind.groups)
		}
	}
	if x := summaryMiss(got, part); x >= 0 {
		t.Fatalf("%s (k=%d m=%d, %d bases): the k-mer at %d fails its bucket's summary", name, cfg.K, cfg.M, len(part), x)
	}
	return got
}

// summaryMiss returns the first position of part whose k-mer f's bucket
// summary rules out, or -1 when every stored k-mer passes its summary.
func summaryMiss(f *Filter, part dna.Sequence) int {
	for x := 0; x+f.cfg.K <= len(part); x++ {
		if r, _ := f.bucket(dna.PackKmer(part, x, f.cfg.K)); r.end == r.start {
			return x
		}
	}
	return -1
}

// repeatRich returns a partition of n bases mixing random stretches with
// homopolymer runs and short tandem repeats, whose k-mers pile into a few
// mini buckets far past insertionSortMax.
func repeatRich(rng *rand.Rand, n int) dna.Sequence {
	s := make(dna.Sequence, 0, n)
	for len(s) < n {
		run := 50 + rng.Intn(300)
		switch rng.Intn(3) {
		case 0:
			b := dna.Base(rng.Intn(4))
			for range run {
				s = append(s, b)
			}
		case 1:
			unit := randSeq(rng, 1+rng.Intn(6))
			for j := range run {
				s = append(s, unit[j%len(unit)])
			}
		default:
			s = append(s, randSeq(rng, run)...)
		}
	}
	return s[:n]
}

// TestBuildFilterMatchesSortOracle requires the radix-sort build to
// reproduce the sort build's five tables exactly (the mini entries'
// summaries too), and each tag's derived group mask to equal the sort
// build's: random and repeat-rich partitions, partitions shorter than k
// and exactly k long, and (k, m) pairs from m=1 to the widest 16-base
// tag and the 12-base mini limit, with the ablations' widest indicators
// (stride 64, 40 groups). The shapes cross the block width's cases (see
// blockWidth): a single block (m=1, 5 and 3 at small k), blocks of 1024
// buckets (m=10), the carry limit equal to that at (21, 10), one bucket
// per block at (17, 1), (26, 10) and (28, 12). Each shape also builds a
// partition whose homopolymer block outgrows the radix scratch.
func TestBuildFilterMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	shapes := []struct{ k, m, stride, groups int }{
		{7, 4, 5, 4}, {2, 1, 5, 4}, {5, 1, 5, 4}, {17, 1, 5, 4}, {12, 6, 5, 4},
		{19, 10, 40, 20}, {20, 4, 64, 20}, {24, 8, 40, 40}, {9, 3, 64, 40},
		{21, 10, 40, 20}, {26, 10, 40, 20}, {28, 12, 64, 40}, {13, 5, 5, 4}, {21, 5, 40, 20},
	}
	for _, sh := range shapes {
		cfg := testConfig()
		cfg.K, cfg.M, cfg.MinSMEM = sh.k, sh.m, sh.k
		cfg.Stride, cfg.Groups = sh.stride, sh.groups
		sizes, trials := []int{0, 1, sh.k - 1, sh.k, sh.k + 1, 97, 3000}, 3
		if sh.m == MaxMiniBases { // 128 MiB of mini entries a build
			sizes, trials = []int{sh.k, 3000}, 1
		}
		for _, n := range sizes {
			checkAgainstOracle(t, fmt.Sprintf("random %d", n), randSeq(rng, n), cfg)
		}
		for trial := range trials {
			checkAgainstOracle(t, fmt.Sprintf("repeats %d", trial), repeatRich(rng, 2000+rng.Intn(4000)), cfg)
		}
		part := append(repeatRich(rng, 3000), homopolymer(dna.Base(rng.Intn(4)), blockScratchMax+2*sh.k)...)
		f := checkAgainstOracle(t, "homopolymer block", part, cfg)
		if largestBucket(f) <= blockScratchMax {
			t.Fatalf("k=%d m=%d: no bucket, so no block, exceeded %d positions: the in-place sort went untested",
				sh.k, sh.m, blockScratchMax)
		}
	}
}

// homopolymer returns n copies of b.
func homopolymer(b dna.Base, n int) dna.Sequence {
	s := make(dna.Sequence, n)
	for i := range s {
		s[i] = b
	}
	return s
}

// tandemRepeat returns n bases of unit repeated.
func tandemRepeat(unit dna.Sequence, n int) dna.Sequence {
	s := make(dna.Sequence, n)
	for i := range s {
		s[i] = unit[i%len(unit)]
	}
	return s
}

// largestBucket returns the most positions any mini bucket of f holds.
func largestBucket(f *Filter) int32 {
	largest := int32(0)
	for p := range len(f.mini) - 1 {
		largest = max(largest, f.posIndex[f.mini[p+1].start]-f.posIndex[f.mini[p].start])
	}
	return largest
}

// TestSummaryNoFalseNegatives builds random and repeat-rich partitions
// at every (k, m) FuzzBuildFilter draws, so at every tag width from 1 to
// 16 bases, and requires every stored k-mer to pass its bucket's summary:
// a clear bit answers "absent" without reading the tags.
func TestSummaryNoFalseNegatives(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	widths := map[int]bool{}
	for k := 2; k <= 24; k++ {
		for m := max(1, k-maxTagBases); m <= min(k-1, 6); m++ {
			cfg := testConfig()
			cfg.K, cfg.M, cfg.MinSMEM = k, m, k
			widths[k-m] = true
			for _, part := range []dna.Sequence{randSeq(rng, 3000), repeatRich(rng, 3000)} {
				f, err := BuildFilter(part, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if x := summaryMiss(f, part); x >= 0 {
					t.Fatalf("k=%d m=%d: the k-mer at %d fails its bucket's summary", k, m, x)
				}
			}
		}
	}
	if len(widths) != maxTagBases {
		t.Fatalf("covered %d tag widths, want 1..%d", len(widths), maxTagBases)
	}
}

// TestSummaryRejectsAbsentProbes probes random k-mers of a 1 Mbase
// random partition at the paper's k=19, m=10, where a bucket holds about
// one tag and a sound 32-bit summary passes about 3% of absent k-mers.
// More than 10% means a degenerate hash, which would send absent probes
// to the tags again.
func TestSummaryRejectsAbsentProbes(t *testing.T) {
	const n = 1 << 20
	cfg := DefaultConfig()
	cfg.PartitionBases = n
	rng := rand.New(rand.NewSource(41))
	f, err := BuildFilter(randSeq(rng, n), cfg)
	if err != nil {
		t.Fatal(err)
	}
	absent, passed := 0, 0
	for range 200000 {
		kmer := dna.Kmer(rng.Int63n(int64(dna.NumKmers(cfg.K))))
		if f.indexOf(kmer) >= 0 {
			continue
		}
		absent++
		if r, _ := f.bucket(kmer); r.end > r.start {
			passed++
		}
	}
	frac := float64(passed) / float64(absent)
	t.Logf("%d of %d absent probes (%.2f%%) pass the summary", passed, absent, 100*frac)
	if frac > 0.10 {
		t.Errorf("%.1f%% of absent probes pass the summary, over 10%%", 100*frac)
	}
}

// FuzzBuildFilter requires the radix-sort build to match the sort oracle
// on arbitrary partitions and geometries, bucket summaries included, and
// every stored k-mer to pass its bucket's summary. The corpus holds the
// block width's boundary geometries (see blockWidth).
func FuzzBuildFilter(f *testing.F) {
	f.Add([]byte("ACGTTGCAAGGCTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTACACACACACACACAC"), uint8(7), uint8(4))
	f.Add(make([]byte, 400), uint8(5), uint8(1))
	f.Add([]byte("GATTACA"), uint8(17), uint8(1))
	random := func(n int) []byte {
		b := make([]byte, n)
		rand.New(rand.NewSource(int64(n))).Read(b)
		return b
	}
	// (21, 10): 2k-32 = 2m-10, the carry limit meets the bucket limit.
	f.Add(random(600), uint8(19), uint8(240+9))
	// (26, 10): 2k-32 = 2m, a block is one bucket.
	f.Add([]byte("ACGTACGTTTGACCAGTAGGATTACAGATTACAGATTACACCCCCCCCCCCCCCCCCCCCCCCCCCCTT"), uint8(24), uint8(240+9))
	// (28, 12): 16-base tags at the largest m.
	f.Add(random(300), uint8(26), uint8(240+11))
	// m=1 and m=5: fewer prefix bits than one block's buckets.
	f.Add([]byte("TTTTTTTTTTTTTTTTTTTTTTTTTTTGCAGCAGCAGCAGCAGCAGCAGCAGCAGCAGCA"), uint8(7), uint8(0))
	f.Add([]byte("CAGCAGCAGCAGCAGCAGCAGCAGCAGACGTTGCAAGGCTGGGGGGGGGGGGGGGGGGGGGGGGGAAC"), uint8(11), uint8(4))
	f.Fuzz(func(t *testing.T, data []byte, k, m uint8) {
		cfg := testConfig()
		// k in 2..28. m is in 1..min(k-1, 6), which keeps the mini index
		// and each iteration small, or for m from 240 in 1..min(k-1, 12);
		// either is raised to k-16 where the tag limit needs it.
		cfg.K = 2 + int(k)%27
		if m < 240 {
			cfg.M = 1 + int(m)%min(cfg.K-1, 6)
		} else {
			cfg.M = 1 + int(m-240)%min(cfg.K-1, MaxMiniBases)
		}
		cfg.M = max(cfg.M, cfg.K-maxTagBases)
		cfg.MinSMEM = cfg.K
		if len(data) > cfg.PartitionBases {
			data = data[:cfg.PartitionBases]
		}
		part := make(dna.Sequence, len(data))
		for i, b := range data {
			part[i] = dna.Base(b & 3)
		}
		checkAgainstOracle(t, "fuzz", part, cfg)
	})
}

// filterTableBytes is the heap size of a filter's five tables: an 8-byte
// entry (bound and summary) per mini bucket (plus one), a 4-byte tag and
// an 8-byte start mask per distinct k-mer, and the 4-byte position index
// and positions.
func filterTableBytes(f *Filter) uint64 {
	return uint64(8*len(f.mini) + 4*len(f.tags) + 8*len(f.data) + 4*len(f.posIndex) + 4*len(f.positions))
}

// TestBuildFilterTransientBytes bounds what one build allocates beyond
// the tables it returns: the carries scattered beside the positions, 4
// bytes per base, plus a little slack. A packed 8-byte key per base, as
// the sort build used, does not fit, and neither does radix scratch sized
// to the largest block: the homopolymer puts every k-mer in one block, and
// the tandem repeat puts them in a handful.
func TestBuildFilterTransientBytes(t *testing.T) {
	const n = 1 << 20
	cfg := DefaultConfig()
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct {
		name string
		part dna.Sequence
	}{
		{"random", randSeq(rng, n)},
		{"homopolymer", homopolymer(dna.Base(0), n)},
		{"tandem repeat", tandemRepeat(randSeq(rng, 7), n)},
	} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		f, err := BuildFilter(tc.part, cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		tables := filterTableBytes(f)
		limit := tables + 4*n + n/2
		if got := after.TotalAlloc - before.TotalAlloc; got > limit {
			t.Errorf("%s: build of %d bases allocated %d bytes: %d of tables + %d transient, over the %d limit (tables + 4.5 B/base)",
				tc.name, n, got, tables, got-tables, limit)
		}
	}
}

// TestModulusMatchesDivision checks the divide-free remainder against %
// for every stride Config allows and every divisor up to 1000, at the
// edges of the 32-bit range and at random values.
func TestModulusMatchesDivision(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for d := uint32(1); d <= 1000; d++ {
		q := newModulus(d)
		xs := []uint32{0, 1, d - 1, d, d + 1, 2*d - 1, 1<<31 - 1, 1 << 31, 1<<32 - 1}
		for range 200 {
			xs = append(xs, rng.Uint32())
		}
		for _, x := range xs {
			if got, want := q.of(x), uint(x%d); got != want {
				t.Fatalf("%d mod %d = %d, want %d", x, d, got, want)
			}
		}
	}
}

// BenchmarkBuildFilter builds one paper-sized 4 Mbase partition at the
// paper's k=19, m=10.
func BenchmarkBuildFilter(b *testing.B) {
	cfg := DefaultConfig()
	part := randSeq(rand.New(rand.NewSource(8)), cfg.PartitionBases)
	b.SetBytes(int64(len(part)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := BuildFilter(part, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFilterProbe probes one paper-sized 4 Mbase partition at the
// paper's k=19, m=10 the way seeding does, with about the 82% absent
// k-mers of casa-smem on the bench reads: half the reads come from the
// partition with two substitutions, half from elsewhere, and each is
// probed on both strands. LookupAll streams every pivot of a strand;
// ExactCheck issues single lookups at its anchors, one k apart and the
// last pivot, and stops at the first absent one. Each reports the
// nanoseconds per probe and the share of probes that miss.
func BenchmarkFilterProbe(b *testing.B) {
	const reads, readLen = 4096, 101
	cfg := DefaultConfig()
	rng := rand.New(rand.NewSource(31))
	part := randSeq(rng, cfg.PartitionBases)
	f, err := BuildFilter(part, cfg)
	if err != nil {
		b.Fatal(err)
	}
	n := readLen - cfg.K + 1
	var strands [][]dna.Kmer
	for i := range reads {
		read := randSeq(rng, readLen)
		if i%2 == 0 {
			read = plantedRead(rng, part, readLen, 2)
		}
		for _, s := range []dna.Sequence{read, read.ReverseComplement()} {
			kmers := make([]dna.Kmer, n)
			for j := range kmers {
				kmers[j] = dna.PackKmer(s, j, cfg.K)
			}
			strands = append(strands, kmers)
		}
	}
	var anchors []int
	for off := 0; off < n; off += cfg.K {
		anchors = append(anchors, off)
	}
	if anchors[len(anchors)-1] != n-1 {
		anchors = append(anchors, n-1)
	}
	probe := func(b *testing.B, strand func(kmers []dna.Kmer)) {
		*f.Stats = FilterStats{}
		for b.Loop() {
			for _, kmers := range strands {
				strand(kmers)
			}
		}
		s := f.Stats
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(s.Lookups), "ns/probe")
		b.ReportMetric(1-float64(s.Hits)/float64(s.Lookups), "absent_frac")
	}
	b.Run("LookupAll", func(b *testing.B) {
		idx, starts, exists := make([]int32, n), make([]uint64, n), make([]bool, n)
		probe(b, func(kmers []dna.Kmer) { f.LookupAll(kmers, idx, starts, exists) })
	})
	b.Run("ExactCheck", func(b *testing.B) {
		probe(b, func(kmers []dna.Kmer) {
			for _, a := range anchors {
				if _, _, ok := f.lookup(kmers[a]); !ok {
					return
				}
			}
		})
	})
}

// TestSearchMatchesOracle checks the branch-free tag search against
// sort.Search on empty, one-entry and random strictly increasing ranges,
// for suffixes below, between, at and above the stored tags, including
// ranges that start and end inside the tag array.
func TestSearchMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	check := func(tags []uint32, r tagRange, suffix uint32) {
		t.Helper()
		f := &Filter{tags: tags}
		span := tags[r.start:r.end]
		want := int32(-1)
		if i := sort.Search(len(span), func(i int) bool { return span[i] >= suffix }); i < len(span) && span[i] == suffix {
			want = r.start + int32(i)
		}
		if got := f.search(r, suffix); got != want {
			t.Fatalf("search(%v over %v, %d) = %d, want %d", r, span, suffix, got, want)
		}
	}
	check(nil, tagRange{}, 5)
	check([]uint32{7}, tagRange{0, 0}, 7)
	for _, s := range []uint32{0, 6, 7, 8, 1<<32 - 1} {
		check([]uint32{7}, tagRange{0, 1}, s)
	}
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(70)
		tags := make([]uint32, 0, n)
		v := uint32(rng.Intn(4))
		for range n {
			v += 1 + uint32(rng.Intn(5)) // strictly increasing, with gaps
			tags = append(tags, v)
		}
		start := int32(rng.Intn(n + 1))
		end := start + int32(rng.Intn(n-int(start)+1))
		r := tagRange{start, end}
		for s := uint32(0); s <= v+2; s++ {
			check(tags, r, s)
		}
	}
}

// TestLookupAllMatchesLookup requires LookupAll to return the tag indices,
// indicators and existence flags of one Lookup per k-mer, and to charge
// exactly the FilterStats that loop charges, on random, planted and
// homopolymer reads (the last hammer one mini bucket).
func TestLookupAllMatchesLookup(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	cfg := testConfig()
	part := repeatRich(rng, 6000)
	built, err := BuildFilter(part, cfg)
	if err != nil {
		t.Fatal(err)
	}
	reads := []dna.Sequence{
		randSeq(rng, 60),
		part[100:201],
		part[4000:4040],
		dna.FromString("AAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"),
		dna.FromString("CCCCCCCCCCCCCCCCCCCCCCCCCCCC"),
		dna.FromString("ACGTACG"),
	}
	for range 50 {
		reads = append(reads, randSeq(rng, cfg.K+rng.Intn(120)))
	}
	perPivot, batched := built.Clone(), built.Clone()
	for ri, read := range reads {
		n := len(read) - cfg.K + 1
		kmers := make([]dna.Kmer, n)
		for i := range kmers {
			kmers[i] = dna.PackKmer(read, i, cfg.K)
		}
		idx := make([]int32, n)
		starts := make([]uint64, n)
		exists := make([]bool, n)
		anyHit := batched.LookupAll(kmers, idx, starts, exists)
		wantAny := false
		for i, kmer := range kmers {
			wantIdx, wantStarts, wantOK := perPivot.lookup(kmer)
			wantAny = wantAny || wantOK
			if idx[i] != wantIdx || starts[i] != wantStarts || exists[i] != wantOK {
				t.Fatalf("read %d pivot %d: LookupAll (%d, %b, %v), Lookup (%d, %b, %v)",
					ri, i, idx[i], starts[i], exists[i], wantIdx, wantStarts, wantOK)
			}
		}
		if anyHit != wantAny {
			t.Fatalf("read %d: LookupAll reported a hit=%v, want %v", ri, anyHit, wantAny)
		}
		if *batched.Stats != *perPivot.Stats {
			t.Fatalf("read %d: LookupAll stats %+v, per-pivot Lookup stats %+v", ri, batched.Stats, perPivot.Stats)
		}
	}
	if perPivot.Stats.Hits == 0 || perPivot.Stats.Hits == perPivot.Stats.Lookups {
		t.Fatalf("degenerate workload: %d hits of %d lookups", perPivot.Stats.Hits, perPivot.Stats.Lookups)
	}
}
