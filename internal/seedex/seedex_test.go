package seedex

import (
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"casa/internal/align"
	"casa/internal/dna"
)

func randSeq(rng *rand.Rand, n int) dna.Sequence {
	s := make(dna.Sequence, n)
	for i := range s {
		s[i] = dna.Base(rng.Intn(4))
	}
	return s
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Error(err)
	}
	bad := DefaultConfig()
	bad.Machines = 0
	if bad.Validate() == nil {
		t.Error("zero machines accepted")
	}
	bad = DefaultConfig()
	bad.Band = 0
	if bad.Validate() == nil {
		t.Error("zero band accepted")
	}
	bad = DefaultConfig()
	bad.Scoring.Match = 0
	if bad.Validate() == nil {
		t.Error("invalid scoring accepted")
	}
}

func TestNewErrors(t *testing.T) {
	if _, err := New(nil, DefaultConfig()); err == nil {
		t.Error("empty reference accepted")
	}
}

func TestExtendExactRead(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ref := randSeq(rng, 2000)
	m, err := New(ref, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	const origin = 500
	read := ref[origin : origin+101].Clone()
	seed := Seed{QStart: 10, QEnd: 40, RefPos: origin + 10}
	a, ok := m.ExtendRead(read, []Seed{seed})
	if !ok {
		t.Fatal("extension failed")
	}
	if a.RefStart != origin {
		t.Errorf("RefStart = %d, want %d", a.RefStart, origin)
	}
	if a.Score != 101 {
		t.Errorf("score = %d, want 101 (all matches)", a.Score)
	}
	if a.Cigar.String() != "101M" {
		t.Errorf("cigar = %s", a.Cigar)
	}
	if a.EditDist != 0 {
		t.Errorf("edit distance = %d, want 0", a.EditDist)
	}
}

func TestExtendWithMismatches(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ref := randSeq(rng, 2000)
	m, err := New(ref, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	const origin = 800
	read := ref[origin : origin+101].Clone()
	read[20] ^= 1
	read[70] ^= 2
	seed := Seed{QStart: 30, QEnd: 60, RefPos: origin + 30}
	a, ok := m.ExtendRead(read, []Seed{seed})
	if !ok {
		t.Fatal("extension failed")
	}
	sc := m.Config().Scoring
	want := 99*sc.Match - 2*sc.Mismatch
	if a.Score != want {
		t.Errorf("score = %d, want %d", a.Score, want)
	}
	if a.EditDist != 2 {
		t.Errorf("edit distance = %d, want 2", a.EditDist)
	}
}

func TestExtendPicksBestOfMultipleSeeds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// Two copies of a motif; the read matches copy B exactly and copy A
	// with mutations.
	motif := randSeq(rng, 101)
	mutated := motif.Clone()
	mutated[5] ^= 1
	mutated[50] ^= 3
	var ref dna.Sequence
	ref = append(ref, randSeq(rng, 300)...)
	aPos := len(ref)
	ref = append(ref, mutated...)
	ref = append(ref, randSeq(rng, 300)...)
	bPos := len(ref)
	ref = append(ref, motif...)
	ref = append(ref, randSeq(rng, 300)...)

	m, err := New(ref, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	seeds := []Seed{
		{QStart: 60, QEnd: 90, RefPos: int32(aPos + 60)},
		{QStart: 60, QEnd: 90, RefPos: int32(bPos + 60)},
	}
	a, ok := m.ExtendRead(motif, seeds)
	if !ok {
		t.Fatal("extension failed")
	}
	if a.RefStart != bPos {
		t.Errorf("chose RefStart %d, want the exact copy at %d", a.RefStart, bPos)
	}
	if a.EditDist != 0 {
		t.Errorf("edit distance = %d", a.EditDist)
	}
}

func TestExtendReadWithIndel(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ref := randSeq(rng, 1500)
	m, err := New(ref, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	const origin = 400
	window := ref[origin : origin+101]
	// Read = window with 2 bases deleted at 50.
	read := append(window[:50].Clone(), window[52:]...)
	seed := Seed{QStart: 0, QEnd: 40, RefPos: origin}
	a, ok := m.ExtendRead(read, seed0(seed))
	if !ok {
		t.Fatal("extension failed")
	}
	if a.EditDist > 2 {
		t.Errorf("edit distance = %d, want <= 2", a.EditDist)
	}
	hasDel := false
	for _, op := range a.Cigar {
		if op.Op == align.OpDelete {
			hasDel = true
		}
	}
	if !hasDel {
		t.Errorf("deletion not recovered: cigar %s", a.Cigar)
	}
}

func seed0(s Seed) []Seed { return []Seed{s} }

func TestExtendNoSeeds(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ref := randSeq(rng, 500)
	m, _ := New(ref, DefaultConfig())
	if _, ok := m.ExtendRead(randSeq(rng, 50), nil); ok {
		t.Error("no-seed extension succeeded")
	}
	if _, ok := m.ExtendRead(nil, []Seed{{0, 10, 5}}); ok {
		t.Error("empty-read extension succeeded")
	}
}

func TestMaxHitsCap(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ref := randSeq(rng, 3000)
	cfg := DefaultConfig()
	cfg.MaxHits = 3
	m, _ := New(ref, cfg)
	read := ref[100:201].Clone()
	var seeds []Seed
	for i := 0; i < 20; i++ {
		seeds = append(seeds, Seed{QStart: 0, QEnd: 30, RefPos: int32(100 + i)})
	}
	m.ExtendRead(read, seeds)
	if m.Stats.Extensions > 3 {
		t.Errorf("Extensions = %d, cap was 3", m.Stats.Extensions)
	}
}

func TestSecondsModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ref := randSeq(rng, 2000)
	m, _ := New(ref, DefaultConfig())
	if m.Seconds() != 0 {
		t.Error("idle machine has nonzero time")
	}
	for i := 0; i < 10; i++ {
		start := rng.Intn(len(ref) - 101)
		read := ref[start : start+101].Clone()
		m.ExtendRead(read, []Seed{{QStart: 0, QEnd: 50, RefPos: int32(start)}})
	}
	if m.Seconds() <= 0 {
		t.Error("no time accumulated")
	}
	if m.Stats.Extensions != 10 || m.Stats.EditRuns != 10 {
		t.Errorf("stats = %+v", m.Stats)
	}
}

func TestSecondScoreTracksRunnerUp(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	// Two copies of a motif, one exact, one with a mismatch: the winner's
	// SecondScore must reflect the losing placement.
	motif := randSeq(rng, 80)
	worse := motif.Clone()
	worse[10] ^= 1
	var ref dna.Sequence
	ref = append(ref, randSeq(rng, 200)...)
	aPos := len(ref)
	ref = append(ref, worse...)
	ref = append(ref, randSeq(rng, 200)...)
	bPos := len(ref)
	ref = append(ref, motif...)
	ref = append(ref, randSeq(rng, 200)...)
	m, err := New(ref, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	al, ok := m.ExtendRead(motif, []Seed{
		{QStart: 30, QEnd: 60, RefPos: int32(aPos + 30)},
		{QStart: 30, QEnd: 60, RefPos: int32(bPos + 30)},
	})
	if !ok {
		t.Fatal("extension failed")
	}
	sc := m.Config().Scoring
	if al.Score != 80*sc.Match {
		t.Errorf("winner score = %d", al.Score)
	}
	want := 79*sc.Match - sc.Mismatch
	if al.SecondScore != want {
		t.Errorf("SecondScore = %d, want %d", al.SecondScore, want)
	}
}

func TestSecondScoreUnsetForUniqueHit(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	ref := randSeq(rng, 1000)
	m, _ := New(ref, DefaultConfig())
	read := ref[200:280].Clone()
	al, ok := m.ExtendRead(read, []Seed{{QStart: 0, QEnd: 40, RefPos: 200}})
	if !ok {
		t.Fatal("extension failed")
	}
	if al.SecondScore > 0 {
		t.Errorf("unique hit has SecondScore %d", al.SecondScore)
	}
}

func TestSameStartSeedsCollapse(t *testing.T) {
	// Multiple seeds pointing at the same placement are one candidate,
	// not competing evidence (SecondScore must stay unset).
	rng := rand.New(rand.NewSource(11))
	ref := randSeq(rng, 1000)
	m, _ := New(ref, DefaultConfig())
	read := ref[300:380].Clone()
	al, ok := m.ExtendRead(read, []Seed{
		{QStart: 0, QEnd: 30, RefPos: 300},
		{QStart: 40, QEnd: 70, RefPos: 340},
	})
	if !ok {
		t.Fatal("extension failed")
	}
	if al.SecondScore > 0 {
		t.Errorf("same-placement seeds produced SecondScore %d", al.SecondScore)
	}
}

func TestSeedAtReferenceEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	ref := randSeq(rng, 300)
	m, _ := New(ref, DefaultConfig())
	read := ref[:80].Clone()
	// Seed at position 0: window clamps at the reference start.
	a, ok := m.ExtendRead(read, []Seed{{QStart: 0, QEnd: 40, RefPos: 0}})
	if !ok {
		t.Fatal("edge extension failed")
	}
	if a.RefStart != 0 {
		t.Errorf("RefStart = %d, want 0", a.RefStart)
	}
}

// TestClonesMatchSequentialRun extends the same reads on one machine and
// on concurrent clones (run with -race): every alignment matches, and the
// clones' Stats added back equal the sequential machine's.
func TestClonesMatchSequentialRun(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ref := randSeq(rng, 20000)
	type job struct {
		read  dna.Sequence
		seeds []Seed
	}
	jobs := make([]job, 64)
	for i := range jobs {
		origin := rng.Intn(len(ref) - 150)
		read := ref[origin : origin+150].Clone()
		read[rng.Intn(150)] = dna.Base(rng.Intn(4))
		seeds := []Seed{{QStart: 20, QEnd: 60, RefPos: int32(origin + 20)}}
		for k := 0; k < 3; k++ { // decoys on random diagonals
			seeds = append(seeds, Seed{QStart: 80, QEnd: 100, RefPos: int32(rng.Intn(len(ref)))})
		}
		jobs[i] = job{read, seeds}
	}
	seq, err := New(ref, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := make([]Alignment, len(jobs))
	for i, j := range jobs {
		want[i], _ = seq.ExtendRead(j.read, j.seeds)
	}

	const workers = 4
	clones := make([]*Machine, workers)
	got := make([]Alignment, len(jobs))
	done := make(chan struct{})
	for w := range clones {
		clones[w] = seq.Clone()
		if clones[w].Stats != (Stats{}) {
			t.Fatalf("clone starts with Stats %+v", clones[w].Stats)
		}
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := w; i < len(jobs); i += workers {
				got[i], _ = clones[w].ExtendRead(jobs[i].read, jobs[i].seeds)
			}
		}(w)
	}
	for range clones {
		<-done
	}
	var total Stats
	for i := range jobs {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("read %d: clone %+v, sequential %+v", i, got[i], want[i])
		}
	}
	for _, c := range clones {
		total.Add(c.Stats)
	}
	if total != seq.Stats {
		t.Errorf("clone Stats sum %+v, sequential %+v", total, seq.Stats)
	}
}

// occurrences returns a whole-read seed at every exact occurrence of
// read in ref.
func occurrences(ref, read dna.Sequence) []Seed {
	var seeds []Seed
	for r := 0; r+len(read) <= len(ref); r++ {
		if ref[r : r+len(read)].Equal(read) {
			seeds = append(seeds, Seed{QStart: 0, QEnd: len(read) - 1, RefPos: int32(r)})
		}
	}
	return seeds
}

// extendCase is one read and its seeds, and whether the exact-read
// shortcut must answer it (false: it must decline and leave the read to
// the banded fits).
type extendCase struct {
	name     string
	read     dna.Sequence
	seeds    []Seed
	shortcut bool
}

// matchesFit runs ExtendRead on one machine and the always-fit path on
// another over the same reference and configuration, and requires equal
// alignments and equal Stats after every read.
func matchesFit(t *testing.T, ref dna.Sequence, cfg Config, cases []extendCase) {
	t.Helper()
	got, err := New(ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := got.Clone()
	for _, c := range cases {
		ga, gok := got.ExtendRead(c.read, c.seeds)
		wa, wok := want.extend(c.read, c.seeds, false)
		if gok != wok || !reflect.DeepEqual(ga, wa) {
			t.Errorf("%s: ExtendRead %+v (ok %v), fit %+v (ok %v)", c.name, ga, gok, wa, wok)
		}
		if got.Stats != want.Stats {
			t.Fatalf("%s: ExtendRead Stats %+v, fit Stats %+v", c.name, got.Stats, want.Stats)
		}
		probe := got.Clone()
		if _, took := probe.exactPlacement(c.read, probe.retained(c.seeds)); took != c.shortcut {
			t.Errorf("%s: shortcut taken %v, want %v", c.name, took, c.shortcut)
		}
	}
}

// TestExtendReadMatchesFit is the oracle for the exact-read shortcut:
// on random exact reads, tandem repeats of every period up to Band+2,
// duplicates inside and just outside the band, and hits whose band
// window is clamped at either reference end, ExtendRead returns what the
// banded fits return and charges the same counters. Reads with a period
// up to Band, reads shorter than the band, wrong seeds and partial seeds
// are shown to decline the shortcut.
func TestExtendReadMatchesFit(t *testing.T) {
	cfg := DefaultConfig()
	band := cfg.Band
	rng := rand.New(rand.NewSource(12))
	const n = 101
	var ref dna.Sequence
	var cases []extendCase
	add := func(name string, read dna.Sequence, seeds []Seed, shortcut bool) {
		cases = append(cases, extendCase{name, read, seeds, shortcut})
	}
	pad := func(k int) { ref = append(ref, randSeq(rng, k)...) }

	// Reference-edge hit at the start: the window's lo clamps to 0.
	ref = append(ref, randSeq(rng, n)...)
	edgeLo := ref[:n].Clone()
	pad(500)

	// Tandem arrays: a random unit of period p repeated past the read.
	tandem := map[int]dna.Sequence{}
	for p := 1; p <= band+2; p++ {
		unit := randSeq(rng, p)
		for p > 1 && hasPeriodWithin(append(unit.Clone(), unit...), p-1) {
			unit = randSeq(rng, p) // a unit with a shorter period of its own
		}
		start := len(ref)
		for len(ref)-start < n+3*p {
			ref = append(ref, unit...)
		}
		tandem[p] = ref[start+p : start+p+n].Clone()
		pad(300)
	}

	// Duplicates: copies of a read d bases apart lie inside each
	// other's band window when d <= Band. For a read longer than the band
	// that needs overlapping copies, a period (the tandem arrays above);
	// back-to-back copies of a long read tie outside the band, and copies
	// of a read shorter than the band tie inside it.
	long := randSeq(rng, n)
	ref = append(ref, long...)
	ref = append(ref, long...)
	pad(300)
	short := randSeq(rng, band-3)
	shortAt := len(ref)
	ref = append(ref, short...)
	ref = append(ref, short...)
	pad(300)

	// Reference-edge hit at the end: the window's hi clamps to len(ref).
	pad(400)
	ref = append(ref, randSeq(rng, n)...)
	edgeHi := ref[len(ref)-n:].Clone()

	// Random exact reads (with the reads above placed, so that every
	// occurrence is seen), then mutated and mis-seeded ones.
	add("edge lo", edgeLo, occurrences(ref, edgeLo), true)
	add("edge hi", edgeHi, occurrences(ref, edgeHi), true)
	for p := 1; p <= band+2; p++ {
		seeds := occurrences(ref, tandem[p])
		if len(seeds) < 2 {
			t.Fatalf("tandem period %d: %d occurrences", p, len(seeds))
		}
		add("tandem period "+itoa(p), tandem[p], seeds, p > band)
		add("tandem period "+itoa(p)+" one seed", tandem[p], seeds[len(seeds)-1:], p > band)
	}
	add("back-to-back duplicate", long, occurrences(ref, long), true)
	if got := occurrences(ref, short); !slices.Contains(got, Seed{QEnd: len(short) - 1, RefPos: int32(shortAt + len(short))}) {
		t.Fatalf("short read occurrences %+v", got)
	}
	add("short duplicate", short, occurrences(ref, short), false)
	for i := 0; i < 40; i++ {
		origin := rng.Intn(len(ref) - n)
		read := ref[origin : origin+n].Clone()
		seeds := occurrences(ref, read)
		add("exact "+itoa(origin), read, seeds, !hasPeriodWithin(read, band))

		wrong := []Seed{{QStart: 0, QEnd: n - 1, RefPos: int32(origin + 1 + rng.Intn(band))}}
		add("wrong seed "+itoa(origin), read, append(wrong, seeds...), false)
		add("past the end "+itoa(origin), read, []Seed{{QStart: 0, QEnd: n - 1, RefPos: int32(len(ref) - n + 1)}}, false)

		partial := []Seed{{QStart: 10, QEnd: 60, RefPos: int32(origin + 10)}}
		add("partial seed "+itoa(origin), read, partial, false)

		mut := read.Clone()
		mut[rng.Intn(n)] ^= 1
		add("mutated "+itoa(origin), mut, seeds, false)
	}
	matchesFit(t, ref, cfg, cases)

	// A cap below the hit count: the shortcut sees only retained seeds.
	capped := cfg
	capped.MaxHits = 2
	matchesFit(t, ref, capped, cases[:2])
}

func itoa(v int) string { return strconv.Itoa(v) }

// FuzzExtendReadMatchesFit compares ExtendRead with the always-fit path
// on a reference, band and hit cap from the input: a read cut from the
// reference (optionally mutated), seeded at every exact occurrence and
// optionally at one arbitrary position.
func FuzzExtendReadMatchesFit(f *testing.F) {
	f.Add([]byte("ACGTTGCAAGCTTACGGATCCATGACGTACGTAGCTAGCTAGGATCC"), uint16(3), uint8(30), uint8(8), uint8(8), uint8(0), int32(-1))
	f.Add([]byte("AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"), uint16(0), uint8(20), uint8(3), uint8(4), uint8(0), int32(5))
	f.Add([]byte("ACACACACACACACACACACACACACACACACACGTTTGACCA"), uint16(2), uint8(25), uint8(1), uint8(2), uint8(7), int32(0))
	f.Fuzz(func(t *testing.T, raw []byte, start uint16, length, band, maxHits, mutate uint8, extra int32) {
		if len(raw) == 0 || len(raw) > 4096 {
			return
		}
		ref := make(dna.Sequence, len(raw))
		for i, b := range raw {
			ref[i] = dna.Base(b & 3)
		}
		s := int(start) % len(ref)
		n := 1 + int(length)%(len(ref)-s)
		read := ref[s : s+n].Clone()
		seeds := occurrences(ref, read)
		if mutate > 0 {
			read[int(mutate)%n] ^= dna.Base(1 + mutate%3)
		}
		if extra >= 0 {
			seeds = append(seeds, Seed{QStart: 0, QEnd: n - 1, RefPos: extra % int32(len(ref)+n)})
		}
		cfg := DefaultConfig()
		cfg.Band = 1 + int(band)%16
		cfg.MaxHits = 1 + int(maxHits)%12
		got, err := New(ref, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := got.Clone()
		ga, gok := got.ExtendRead(read, seeds)
		wa, wok := want.extend(read, seeds, false)
		if gok != wok || !reflect.DeepEqual(ga, wa) {
			t.Fatalf("ExtendRead %+v (ok %v), fit %+v (ok %v)", ga, gok, wa, wok)
		}
		if got.Stats != want.Stats {
			t.Fatalf("ExtendRead Stats %+v, fit Stats %+v", got.Stats, want.Stats)
		}
	})
}
