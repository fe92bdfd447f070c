package core

import (
	"math/rand"
	"testing"

	"casa/internal/cam"
	"casa/internal/dna"
)

// These tests stand in for the paper's RTL verification: the behavioural
// SMEM computing model (filter positions + longest common extension) is
// cross-checked against a bit-accurate binary CAM holding the partition
// exactly as the hardware does — non-overlapped 40-base (80-bit) entries
// in round-robin power-gated groups, searched with padded don't-care
// queries built from the search indicators.

// camImage stores part into a cam.Bank per the §3 layout and returns it.
func camImage(part dna.Sequence, cfg Config) *cam.Bank {
	entries := (len(part) + cfg.Stride - 1) / cfg.Stride
	// One array per group round-robin: array i gets entries i, i+groups...
	// To keep GroupOf(entry) == entry%groups (occupiedGroups maps
	// position x to group (x/stride)%groups), use one
	// entry per "array" with groups-sized round robin. Rows per array can
	// be 1 for the test; the energy geometry is irrelevant here.
	bank := cam.NewBank(entries, 1, 2*cfg.Stride, cfg.Groups)
	for e := 0; e < entries; e++ {
		var w cam.Word
		for off := 0; off < cfg.Stride; off++ {
			x := e*cfg.Stride + off
			if x >= len(part) {
				break
			}
			w = w.SetBits(2*off, 2, uint64(part[x]))
		}
		bank.Array(e).Write(0, w)
	}
	return bank
}

// padQuery builds the padded key and care mask for matching kmer at entry
// offset s: bases occupy bit range [2s, 2(s+k)) of the 80-bit word; bits
// outside are X (don't care). The part of the k-mer past the entry end is
// returned as a remainder to verify against the successor entry.
func padQuery(kmer dna.Kmer, k, s, stride int) (key, care cam.Word, rem dna.Sequence) {
	inEntry := min(k, stride-s)
	for j := 0; j < inEntry; j++ {
		key = key.SetBits(2*(s+j), 2, uint64(dna.KmerBase(kmer, k, j)))
	}
	care = cam.MaskRange(2*s, 2*inEntry)
	for j := inEntry; j < k; j++ {
		rem = append(rem, dna.KmerBase(kmer, k, j))
	}
	return key, care, rem
}

func TestCAMImageMatchesIndicatorSearches(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cfg := testConfig() // k=7, stride=5, groups=4
	part := randSeq(rng, 600)
	f, err := BuildFilter(part, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bank := camImage(part, cfg)

	for x := 0; x+cfg.K <= len(part); x += 3 {
		kmer := dna.PackKmer(part, x, cfg.K)
		starts, ok := f.Lookup(kmer)
		if !ok {
			t.Fatalf("present k-mer missing from filter")
		}
		// Gather CAM-detected occurrence positions using only the
		// indicator (start offsets + group mask), as the hardware does.
		// The filter derives the group mask from the positions.
		groups := occupiedGroups(f.Positions(kmer), cfg)
		found := map[int]bool{}
		for s := 0; s < cfg.Stride; s++ {
			if starts>>uint(s)&1 == 0 {
				continue
			}
			key, care, rem := padQuery(kmer, cfg.K, s, cfg.Stride)
			for _, m := range bank.SearchGroups(key, care, groups) {
				// The candidate's remainder must continue in the successor
				// entry (the next multi-stride match cycle).
				pos := m.Array*cfg.Stride + s
				match := true
				for j, b := range rem {
					nx := pos + (cfg.Stride - s) + j
					if nx >= len(part) || part[nx] != b {
						match = false
						break
					}
				}
				if match {
					found[pos] = true
				}
			}
		}
		// The CAM view must equal the filter's position list exactly.
		want := f.Positions(kmer)
		if len(found) != len(want) {
			t.Fatalf("pos %d: CAM found %d occurrences, filter has %d", x, len(found), len(want))
		}
		for _, p := range want {
			if !found[int(p)] {
				t.Fatalf("pos %d: CAM missed occurrence at %d", x, p)
			}
		}
	}
}

func TestCAMGroupGatingNeverLosesMatches(t *testing.T) {
	// Searching only the indicator's groups must find the same entries as
	// searching every group (the indicator is exact, not approximate).
	rng := rand.New(rand.NewSource(2))
	cfg := testConfig()
	part := randSeq(rng, 400)
	f, err := BuildFilter(part, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bank := camImage(part, cfg)
	for x := 0; x+cfg.K <= len(part); x += 7 {
		kmer := dna.PackKmer(part, x, cfg.K)
		starts, _ := f.Lookup(kmer)
		groups := occupiedGroups(f.Positions(kmer), cfg)
		for s := 0; s < cfg.Stride; s++ {
			if starts>>uint(s)&1 == 0 {
				continue
			}
			key, care, _ := padQuery(kmer, cfg.K, s, cfg.Stride)
			gated := bank.SearchGroups(key, care, groups)
			all := bank.SearchGroups(key, care, ^uint64(0))
			// Each gated match appears among the all-groups matches, and
			// every all-groups match at this offset whose group is in the
			// mask is found by the gated search.
			if len(gated) > len(all) {
				t.Fatalf("gated search found more than ungated")
			}
			for _, g := range gated {
				ok := false
				for _, a := range all {
					if a == g {
						ok = true
					}
				}
				if !ok {
					t.Fatalf("gated match %v missing from full search", g)
				}
			}
		}
	}
}

func TestCAMStrideSearchReplaysRMEM(t *testing.T) {
	// Replay a full multi-stride CAM search for one pivot and verify the
	// end position equals the behavioural RMEM search's.
	rng := rand.New(rand.NewSource(3))
	cfg := testConfig()
	part := randSeq(rng, 500)
	p, err := NewPartition(part, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bank := camImage(part, cfg)
	for trial := 0; trial < 40; trial++ {
		read := plantedRead(rng, part, 40, rng.Intn(3))
		for pivot := 0; pivot+cfg.K <= len(read); pivot += 5 {
			kmer := dna.PackKmer(read, pivot, cfg.K)
			idx, starts, ok := p.Filter().lookup(kmer)
			if !ok {
				continue
			}
			groups := occupiedGroups(p.Filter().positionsAt(idx), cfg)
			// Behavioural result.
			m, ok := p.rmemSearch(read, pivot, idx)
			if !ok {
				continue
			}
			// CAM replay: for every occurrence entry/offset, extend by
			// comparing successor entries one stride at a time (what the
			// CAM's enabled-successor search does), and track the longest.
			best := 0
			for s := 0; s < cfg.Stride; s++ {
				if starts>>uint(s)&1 == 0 {
					continue
				}
				key, care, rem := padQuery(kmer, cfg.K, s, cfg.Stride)
				for _, bm := range bank.SearchGroups(key, care, groups) {
					pos := bm.Array*cfg.Stride + s
					// Verify the k-mer remainder, then extend base by base
					// (a stride search is just a bulk comparison; per-base
					// replay gives the same end).
					okRem := true
					for j, b := range rem {
						nx := pos + (cfg.Stride - s) + j
						if nx >= len(part) || part[nx] != b {
							okRem = false
							break
						}
					}
					if !okRem {
						continue
					}
					ext := cfg.K
					for pivot+ext < len(read) && pos+ext < len(part) && read[pivot+ext] == part[pos+ext] {
						ext++
					}
					if ext > best {
						best = ext
					}
				}
			}
			if got := m.End - m.Start + 1; got != best {
				t.Fatalf("pivot %d: behavioural RMEM length %d != CAM replay %d", pivot, got, best)
			}
		}
	}
}
