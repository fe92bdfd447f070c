package smem_test

import (
	"strings"
	"testing"

	"casa/internal/dna"
	"casa/internal/engine"
	"casa/internal/readsim"
	"casa/internal/smem"
)

// seedEngine runs one sequential seeding pass on e and returns the
// per-read forward SMEM sets.
func seedEngine(e engine.Engine, reads []dna.Sequence) [][]smem.Match {
	act := e.SeedTrace(reads, nil, 0)
	return e.SMEMs(e.Reduce([]engine.Activity{act}))
}

// TestRegistryEnginesMatchGolden is the registry-driven conformance
// suite: every registered engine, built in its Exact (golden-comparable)
// configuration, must report the brute-force finder's exact SMEM sets —
// intervals AND hit counts — on randomized repeat-rich references (with
// and without N runs) across several read lengths and error rates. A
// newly registered engine is conformance-tested automatically; an engine
// whose Exact mode cannot reproduce the definition is a registration
// bug, not a test gap.
func TestRegistryEnginesMatchGolden(t *testing.T) {
	profiles := []struct {
		name    string
		readLen int
		errRate float64
		minSMEM int
	}{
		{"exact-51bp", 51, 0, 11},
		{"err1pct-101bp", 101, 0.01, 11},
		{"err5pct-151bp", 151, 0.05, 15},
	}
	for _, withNs := range []bool{false, true} {
		refName := "plain"
		if withNs {
			refName = "with-Ns"
		}
		ref := diffRef(1<<14, 5, withNs)
		golden := smem.BruteForce{Ref: ref}
		for _, p := range profiles {
			prof := readsim.ReadProfile{
				Length: p.readLen, Count: 25, Seed: 13,
				ErrRate: p.errRate, IndelRate: p.errRate / 5, RevComp: true,
			}
			reads := readsim.Sequences(readsim.Simulate(ref, prof))
			want := make([][]smem.Match, len(reads))
			for i, read := range reads {
				want[i] = golden.FindSMEMs(read, p.minSMEM)
			}
			for _, f := range engine.List() {
				if f.Golden {
					continue // the oracle defines `want`
				}
				t.Run(strings.Join([]string{refName, f.Name, p.name}, "/"), func(t *testing.T) {
					e, err := engine.New(f.Name, ref, engine.Options{
						MinSMEM: p.minSMEM, TableK: 7, Exact: true,
					})
					if err != nil {
						t.Fatal(err)
					}
					got := seedEngine(e, reads)
					for i := range reads {
						if !smem.Equal(want[i], got[i]) {
							t.Fatalf("read %d: %s disagrees with brute force\n got %v\nwant %v",
								i, f.Name, got[i], want[i])
						}
					}
				})
			}
		}
	}
}
