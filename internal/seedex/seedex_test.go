package seedex

import (
	"math/rand"
	"reflect"
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
