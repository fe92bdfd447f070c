package align

import (
	"math/rand"
	"reflect"
	"testing"

	"casa/internal/dna"
)

// bandedFitOracle is the full-matrix BandedFit the Fitter replaced: three
// (n+1)x(m+1) matrices, every cell initialised to neg and the band filled.
// It stays here as the reference the banded-storage kernel must match.
func bandedFitOracle(query, ref dna.Sequence, band int, sc Scoring) (Result, bool) {
	n, m := len(query), len(ref)
	if band < 1 {
		band = 1
	}
	if n == 0 {
		return Result{}, false
	}
	H := mat(n+1, m+1)
	E := mat(n+1, m+1)
	F := mat(n+1, m+1)
	for i := 0; i <= n; i++ {
		for j := 0; j <= m; j++ {
			H[i][j], E[i][j], F[i][j] = neg, neg, neg
		}
	}
	for j := 0; j <= min(m, band); j++ {
		H[0][j] = 0
	}
	for i := 1; i <= n; i++ {
		lo := max(1, i-band)
		hi := min(m, i+band)
		if i <= band {
			H[i][0] = -sc.GapOpen - i*sc.GapExtend
			F[i][0] = H[i][0]
		}
		for j := lo; j <= hi; j++ {
			E[i][j] = max(E[i][j-1]-sc.GapExtend, H[i][j-1]-sc.GapOpen-sc.GapExtend)
			F[i][j] = max(F[i-1][j]-sc.GapExtend, H[i-1][j]-sc.GapOpen-sc.GapExtend)
			diag := neg
			if H[i-1][j-1] > neg/2 {
				diag = H[i-1][j-1] + sc.sub(query[i-1], ref[j-1])
			}
			H[i][j] = max(diag, max(E[i][j], F[i][j]))
		}
	}
	bestJ, bestScore := -1, neg
	for j := max(0, n-band); j <= min(m, n+band); j++ {
		if H[n][j] > bestScore {
			bestScore, bestJ = H[n][j], j
		}
	}
	if bestJ < 0 || bestScore <= neg/2 {
		return Result{}, false
	}
	var cg Cigar
	i, j := n, bestJ
	for i > 0 {
		switch {
		case j > 0 && H[i][j] == H[i-1][j-1]+sc.sub(query[i-1], ref[j-1]) && H[i-1][j-1] > neg/2:
			cg = appendOp(cg, OpMatch, 1)
			i, j = i-1, j-1
		case j > 0 && H[i][j] == E[i][j]:
			cg = appendOp(cg, OpDelete, 1)
			j--
		default:
			cg = appendOp(cg, OpInsert, 1)
			i--
		}
	}
	cg = reverseCigar(cg)
	return Result{Score: bestScore, Cigar: cg, QueryHi: n, RefLo: j, RefHi: bestJ}, true
}

// mutated copies s with roughly one edit (substitution, insertion or
// deletion) per rate bases, so fits exercise gaps as well as matches.
func mutated(rng *rand.Rand, s dna.Sequence, rate int) dna.Sequence {
	out := make(dna.Sequence, 0, len(s)+len(s)/rate+1)
	for _, b := range s {
		if rng.Intn(rate) != 0 {
			out = append(out, b)
			continue
		}
		switch rng.Intn(3) {
		case 0:
			out = append(out, dna.Base((int(b)+1+rng.Intn(3))%4))
		case 1:
			out = append(out, b, dna.Base(rng.Intn(4)))
		}
	}
	return out
}

// checkFit compares one reused-Fitter fit and the BandedFit wrapper with
// the oracle.
func checkFit(t *testing.T, f *Fitter, q, ref dna.Sequence, band int, sc Scoring) {
	t.Helper()
	want, wantOK := bandedFitOracle(q, ref, band, sc)
	got, gotOK := f.Fit(q, ref, band, sc)
	if gotOK != wantOK || !reflect.DeepEqual(got, want) {
		t.Fatalf("Fit(q=%d, ref=%d, band=%d, %+v) = %+v %v (%s), oracle %+v %v (%s)",
			len(q), len(ref), band, sc, got, gotOK, got.Cigar, want, wantOK, want.Cigar)
	}
	if got, gotOK := BandedFit(q, ref, band, sc); gotOK != wantOK || !reflect.DeepEqual(got, want) {
		t.Fatalf("BandedFit(q=%d, ref=%d, band=%d) = %+v %v, oracle %+v %v",
			len(q), len(ref), band, got, gotOK, want, wantOK)
	}
}

// TestFitterMatchesOracle drives one Fitter through randomized shapes in
// a fixed order — growing, shrinking, band 1 up to wider than the window,
// empty and short references, unrelated and mutated queries — and pins
// every result to the full-matrix oracle, so stale scratch from a previous
// shape can never leak into a fit.
func TestFitterMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	scorings := []Scoring{BWAMEM2(), {Match: 2, Mismatch: 3, GapOpen: 0, GapExtend: 2}, {Match: 1, Mismatch: 0, GapOpen: 3, GapExtend: 1}}
	var f Fitter
	for it := 0; it < 3000; it++ {
		sc := scorings[it%len(scorings)]
		ref := randSeq(rng, rng.Intn(220))
		var q dna.Sequence
		if len(ref) > 0 && rng.Intn(4) != 0 {
			lo := rng.Intn(len(ref))
			hi := lo + rng.Intn(len(ref)-lo+1)
			q = mutated(rng, ref[lo:hi], 2+rng.Intn(20))
		} else {
			q = randSeq(rng, rng.Intn(160))
		}
		var band int
		switch rng.Intn(4) {
		case 0:
			band = 1 + rng.Intn(3)
		case 1:
			band = len(ref) + rng.Intn(8) // the rescue shape: band covers the window
		default:
			band = rng.Intn(40) - 2 // includes band < 1
		}
		checkFit(t, &f, q, ref, band, sc)
	}
}

// TestFitterEdgeShapes covers the shapes a random draw rarely reaches.
func TestFitterEdgeShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	long := randSeq(rng, 300)
	cases := []struct {
		name     string
		q, ref   dna.Sequence
		band     int
		wantFits bool
	}{
		{"empty ref", long[:20], nil, 4, false},
		{"one-base ref", long[:20], long[:1], 1, false},
		{"ref shorter than query, wide band", long[:20], long[:5], 30, true},
		{"band 1 exact", long[:50], long[:50], 1, true},
		{"band 1, query shifted off the main diagonal", long[10:60], long[:60], 1, true},
		{"query far longer than ref plus band", long, long[:40], 3, false},
		{"rescue shape", mutated(rng, long[100:180], 15), long, 300 - 80 + 16, true},
	}
	var f Fitter
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkFit(t, &f, tc.q, tc.ref, tc.band, BWAMEM2())
			if _, ok := f.Fit(tc.q, tc.ref, tc.band, BWAMEM2()); ok != tc.wantFits {
				t.Errorf("ok = %v, want %v", ok, tc.wantFits)
			}
		})
	}
}

// FuzzBandedFit fits two arbitrary shapes with one Fitter — the second on
// the scratch the first left behind — and checks both against the oracle.
func FuzzBandedFit(f *testing.F) {
	f.Add([]byte("ACGTACGTAC"), []byte("TTACGTACGTACGG"), uint8(4), []byte("AC"), []byte(""), uint8(1), uint8(0))
	f.Add([]byte("GATTACA"), []byte("GATTTACA"), uint8(1), []byte("CCCCCCCCCCCCCCCCCCCC"), []byte("CC"), uint8(40), uint8(1))
	f.Add([]byte(""), []byte("ACGT"), uint8(3), []byte("ACGTTGCA"), []byte("ACGTTGCAACGTTGCA"), uint8(200), uint8(2))
	scorings := []Scoring{BWAMEM2(), {Match: 2, Mismatch: 3, GapOpen: 0, GapExtend: 2}, {Match: 1, Mismatch: 0, GapOpen: 3, GapExtend: 1}}
	toSeq := func(b []byte) dna.Sequence {
		if len(b) > 256 {
			b = b[:256]
		}
		s := make(dna.Sequence, len(b))
		for i, c := range b {
			s[i] = dna.Base(c & 3)
		}
		return s
	}
	f.Fuzz(func(t *testing.T, q1, r1 []byte, band1 uint8, q2, r2 []byte, band2 uint8, scoring uint8) {
		sc := scorings[int(scoring)%len(scorings)]
		var fit Fitter
		checkFit(t, &fit, toSeq(q1), toSeq(r1), int(band1), sc)
		checkFit(t, &fit, toSeq(q2), toSeq(r2), int(band2), sc)
	})
}

// fitShapes are the two production call shapes: SeedEx extension (a
// 150-base read against its seed window padded by seedex's default band
// of 8, fitted at band 2*8+2) and pair rescue (the mate against the whole
// insert window, with the band widened to cover it).
func fitShapes() []struct {
	name   string
	q, ref dna.Sequence
	band   int
} {
	rng := rand.New(rand.NewSource(150))
	ref := randSeq(rng, 2100)
	q := mutated(rng, ref[1000:1150], 25)
	return []struct {
		name   string
		q, ref dna.Sequence
		band   int
	}{
		{"seedex", q, ref[992:1166], 18},
		{"rescue", q, ref, 2100 - len(q) + 16},
	}
}

// TestFitterAllocs pins the warmed kernel's allocation: exactly the
// returned CIGAR, for both production shapes.
func TestFitterAllocs(t *testing.T) {
	for _, s := range fitShapes() {
		var f Fitter
		if _, ok := f.Fit(s.q, s.ref, s.band, BWAMEM2()); !ok {
			t.Fatalf("%s: no fit", s.name)
		}
		allocs := testing.AllocsPerRun(20, func() { f.Fit(s.q, s.ref, s.band, BWAMEM2()) })
		if allocs != 1 {
			t.Errorf("%s: warmed Fit allocates %.1f times per call, want 1 (the CIGAR)", s.name, allocs)
		}
	}
}

// fitSink keeps the benchmarked fits from being optimized away.
var fitSink Result

// BenchmarkBandedFit times the production shapes on a warmed Fitter and,
// for comparison, on the full-matrix oracle; run with -benchmem.
func BenchmarkBandedFit(b *testing.B) {
	for _, s := range fitShapes() {
		b.Run(s.name+"/fitter", func(b *testing.B) {
			b.ReportAllocs()
			var f Fitter
			for i := 0; i < b.N; i++ {
				fitSink, _ = f.Fit(s.q, s.ref, s.band, BWAMEM2())
			}
		})
		b.Run(s.name+"/full-matrix", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fitSink, _ = bandedFitOracle(s.q, s.ref, s.band, BWAMEM2())
			}
		})
	}
}

func mat(n, m int) [][]int {
	backing := make([]int, n*m)
	rows := make([][]int, n)
	for i := range rows {
		rows[i] = backing[i*m : (i+1)*m]
	}
	return rows
}
