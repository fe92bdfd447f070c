package refidx

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"casa/internal/dna"
	"casa/internal/seqio"
)

func recs(lens ...int) []seqio.Record {
	rng := rand.New(rand.NewSource(1))
	var out []seqio.Record
	for i, n := range lens {
		s := make(dna.Sequence, n)
		for j := range s {
			s[j] = dna.Base(rng.Intn(4))
		}
		out = append(out, seqio.Record{Name: string(rune('a' + i)), Seq: s})
	}
	return out
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(nil); err == nil {
		t.Error("empty record set accepted")
	}
	if _, err := Build([]seqio.Record{{Name: "", Seq: dna.FromString("ACGT")}}); err == nil {
		t.Error("nameless record accepted")
	}
	if _, err := Build([]seqio.Record{{Name: "x"}}); err == nil {
		t.Error("empty sequence accepted")
	}
}

func TestSingleChromosome(t *testing.T) {
	ix, err := Build(recs(100))
	if err != nil {
		t.Fatal(err)
	}
	if len(ix.Flat()) != 100 {
		t.Errorf("flat length = %d", len(ix.Flat()))
	}
	c, local, ok := ix.Resolve(42)
	if !ok || c.Name != "a" || local != 42 {
		t.Errorf("Resolve(42) = %v %d %v", c, local, ok)
	}
}

func TestSpacersAndBoundaries(t *testing.T) {
	ix, err := Build(recs(100, 200, 50))
	if err != nil {
		t.Fatal(err)
	}
	wantFlat := 100 + SpacerLen + 200 + SpacerLen + 50
	if len(ix.Flat()) != wantFlat {
		t.Fatalf("flat length = %d, want %d", len(ix.Flat()), wantFlat)
	}
	// Last base of chromosome a.
	if c, local, ok := ix.Resolve(99); !ok || c.Name != "a" || local != 99 {
		t.Errorf("Resolve(99) = %v %d %v", c, local, ok)
	}
	// Inside the first spacer.
	if _, _, ok := ix.Resolve(100); ok {
		t.Error("spacer position resolved to a chromosome")
	}
	if _, _, ok := ix.Resolve(100 + SpacerLen - 1); ok {
		t.Error("spacer tail resolved to a chromosome")
	}
	// First base of chromosome b.
	if c, local, ok := ix.Resolve(100 + SpacerLen); !ok || c.Name != "b" || local != 0 {
		t.Errorf("first base of b = %v %d %v", c, local, ok)
	}
	// Out of range.
	if _, _, ok := ix.Resolve(-1); ok {
		t.Error("negative position resolved")
	}
	if _, _, ok := ix.Resolve(wantFlat); ok {
		t.Error("past-the-end position resolved")
	}
}

func TestResolveSpan(t *testing.T) {
	ix, err := Build(recs(100, 100))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := ix.ResolveSpan(95, 10); ok {
		t.Error("span crossing into the spacer accepted")
	}
	if c, local, ok := ix.ResolveSpan(90, 10); !ok || c.Name != "a" || local != 90 {
		t.Errorf("in-chromosome span = %v %d %v", c, local, ok)
	}
}

func TestFlatPosRoundTrip(t *testing.T) {
	ix, err := Build(recs(80, 90, 100))
	if err != nil {
		t.Fatal(err)
	}
	f := func(ci uint8, off uint16) bool {
		c := ix.Chromosomes()[int(ci)%3]
		local := int(off) % c.Length
		flat, err := ix.FlatPos(c.Name, local)
		if err != nil {
			return false
		}
		rc, rlocal, ok := ix.Resolve(flat)
		return ok && rc.Name == c.Name && rlocal == local
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if _, err := ix.FlatPos("nope", 0); err == nil {
		t.Error("unknown chromosome accepted")
	}
	if _, err := ix.FlatPos("a", 80); err == nil {
		t.Error("out-of-range offset accepted")
	}
}

func TestFlatPreservesSequences(t *testing.T) {
	in := recs(60, 70)
	ix, err := Build(in)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range ix.Chromosomes() {
		got := ix.Flat()[c.Start : c.Start+c.Length]
		if !got.Equal(in[i].Seq) {
			t.Errorf("chromosome %s sequence altered", c.Name)
		}
	}
}

// TestBoundaryProperties pins the spacer-boundary invariants over
// randomized layouts: every flat position resolves to exactly one
// chromosome or to no chromosome (a spacer), the resolvable positions
// count to exactly the input bases, Resolve and FlatPos are inverses,
// and ResolveSpan accepts a span iff it lies entirely inside one
// chromosome — checked against a brute-force predicate.
func TestBoundaryProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		lens := make([]int, 1+rng.Intn(6))
		sum := 0
		for i := range lens {
			lens[i] = 1 + rng.Intn(300)
			sum += lens[i]
		}
		ix, err := Build(recs(lens...))
		if err != nil {
			t.Fatalf("trial %d (%v): %v", trial, lens, err)
		}
		wantFlat := sum + (len(lens)-1)*SpacerLen
		if len(ix.Flat()) != wantFlat {
			t.Fatalf("trial %d (%v): flat length %d, want %d", trial, lens, len(ix.Flat()), wantFlat)
		}

		// inChrom is the ground truth: chromosome index per flat position,
		// -1 for spacers.
		inChrom := make([]int, wantFlat)
		for i := range inChrom {
			inChrom[i] = -1
		}
		for ci, c := range ix.Chromosomes() {
			for p := c.Start; p < c.Start+c.Length; p++ {
				if inChrom[p] != -1 {
					t.Fatalf("trial %d: position %d covered by two chromosomes", trial, p)
				}
				inChrom[p] = ci
			}
		}

		resolved := 0
		for p := 0; p < wantFlat; p++ {
			c, local, ok := ix.Resolve(p)
			if ok != (inChrom[p] != -1) {
				t.Fatalf("trial %d: Resolve(%d) ok=%v, want %v", trial, p, ok, inChrom[p] != -1)
			}
			if !ok {
				continue
			}
			resolved++
			want := ix.Chromosomes()[inChrom[p]]
			if c.Name != want.Name || local != p-want.Start {
				t.Fatalf("trial %d: Resolve(%d) = %s:%d, want %s:%d",
					trial, p, c.Name, local, want.Name, p-want.Start)
			}
			flat, err := ix.FlatPos(c.Name, local)
			if err != nil || flat != p {
				t.Fatalf("trial %d: FlatPos(%s, %d) = %d, %v; want %d", trial, c.Name, local, flat, err, p)
			}
		}
		if resolved != sum {
			t.Fatalf("trial %d: %d resolvable positions, want %d input bases", trial, resolved, sum)
		}

		// ResolveSpan against the brute predicate, probing around every
		// chromosome boundary plus random interior spans.
		probe := func(pos, length int) {
			_, _, ok := ix.ResolveSpan(pos, length)
			want := pos >= 0 && pos < wantFlat && length >= 0 && pos+length <= wantFlat && inChrom[pos] != -1
			for p := pos; want && p < pos+length; p++ {
				if inChrom[p] != inChrom[pos] {
					want = false
				}
			}
			if ok != want {
				t.Fatalf("trial %d: ResolveSpan(%d, %d) ok=%v, want %v", trial, pos, length, ok, want)
			}
		}
		for _, c := range ix.Chromosomes() {
			for _, pos := range []int{c.Start - 1, c.Start, c.Start + c.Length - 1, c.Start + c.Length} {
				for _, length := range []int{0, 1, 2, SpacerLen, SpacerLen + 1} {
					probe(pos, length)
				}
			}
		}
		for i := 0; i < 100; i++ {
			probe(rng.Intn(wantFlat), rng.Intn(wantFlat+1))
		}
	}
}

func TestSpacerDeterministicAndNonConstant(t *testing.T) {
	a, _ := Build(recs(50, 50))
	b, _ := Build(recs(50, 50))
	if !a.Flat().Equal(b.Flat()) {
		t.Error("spacer generation nondeterministic")
	}
	spacer := a.Flat()[50 : 50+SpacerLen]
	same := true
	for _, x := range spacer {
		if x != spacer[0] {
			same = false
		}
	}
	if same {
		t.Error("spacer is a homopolymer (would create repeats)")
	}
}

// TestLoadFasta pins the shared FASTA loader: it builds the same index as
// Build over the parsed records, and its errors name the file.
func TestLoadFasta(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ref.fa")
	want := recs(300, 200)
	var buf bytes.Buffer
	if err := seqio.WriteFasta(&buf, want, 60); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	ix, err := LoadFasta(path)
	if err != nil {
		t.Fatal(err)
	}
	built, _ := Build(want)
	if !ix.Flat().Equal(built.Flat()) || len(ix.Chromosomes()) != 2 {
		t.Fatalf("LoadFasta differs from Build: %d chromosomes", len(ix.Chromosomes()))
	}

	empty := filepath.Join(dir, "empty.fa")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{empty, filepath.Join(dir, "missing.fa")} {
		if _, err := LoadFasta(p); err == nil || !strings.Contains(err.Error(), p) {
			t.Errorf("LoadFasta(%s) error = %v, want one naming the file", p, err)
		}
	}
}
