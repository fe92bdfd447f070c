package pairing

import (
	"math/rand"
	"testing"

	"casa/internal/dna"
	"casa/internal/readsim"
)

func TestOptionsValidate(t *testing.T) {
	if err := DefaultOptions().Validate(); err != nil {
		t.Error(err)
	}
	for i, mutate := range []func(*Options){
		func(o *Options) { o.MinInsert = 0 },
		func(o *Options) { o.MaxInsert = o.MinInsert },
		func(o *Options) { o.Band = 0 },
		func(o *Options) { o.MinRescuePercent = 101 },
		func(o *Options) { o.Scoring.Match = 0 },
	} {
		o := DefaultOptions()
		mutate(&o)
		if o.Validate() == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestProper(t *testing.T) {
	opt := DefaultOptions()
	fwd := Mate{Mapped: true, Pos: 1000, RefLen: 101}
	rev := Mate{Mapped: true, Pos: 1300, RefLen: 101, Reverse: true}
	ok, tlen := Proper(fwd, rev, opt)
	if !ok || tlen != 401 {
		t.Errorf("Proper = %v, %d; want true, 401", ok, tlen)
	}
	// Order independence.
	if ok2, tlen2 := Proper(rev, fwd, opt); !ok2 || tlen2 != 401 {
		t.Error("Proper not symmetric")
	}
	// Same strand: never proper.
	if ok, _ := Proper(fwd, Mate{Mapped: true, Pos: 1300, RefLen: 101}, opt); ok {
		t.Error("FF pair reported proper")
	}
	// RF orientation (reverse left of forward): not proper.
	if ok, _ := Proper(Mate{Mapped: true, Pos: 1400, RefLen: 101},
		Mate{Mapped: true, Pos: 1000, RefLen: 101, Reverse: true}, opt); ok {
		t.Error("RF pair reported proper")
	}
	// Insert outside the window.
	far := Mate{Mapped: true, Pos: 9000, RefLen: 101, Reverse: true}
	if ok, _ := Proper(fwd, far, opt); ok {
		t.Error("oversized insert reported proper")
	}
	// Unmapped mate.
	if ok, _ := Proper(fwd, Mate{}, opt); ok {
		t.Error("unmapped mate reported proper")
	}
}

func TestRescueForwardPartner(t *testing.T) {
	// Partner maps forward; the mate should be rescued downstream on the
	// reverse strand.
	ref := readsim.GenerateReference(readsim.DefaultGenome(20000, 1))
	pairs := readsim.SimulatePairs(ref, readsim.DefaultPairProfile(20, 3))
	opt := DefaultOptions()
	rescued := 0
	for _, p := range pairs {
		partner := Mate{Mapped: true, Pos: p.R1.Origin, RefLen: len(p.R1.Seq)}
		// R2.Seq is passed exactly as sequenced (reverse-complemented by
		// the simulator); Rescue undoes the orientation itself.
		m, ok := Rescue(ref, p.R2.Seq, partner, opt)
		if !ok {
			continue
		}
		rescued++
		if !m.Reverse {
			t.Fatal("rescued mate must be on the reverse strand")
		}
		if m.Pos != p.R2.Origin && m.EditDist > p.R2.Errors {
			t.Errorf("rescued at %d (edit %d), true origin %d", m.Pos, m.EditDist, p.R2.Origin)
		}
		if proper, _ := Proper(partner, m, opt); !proper {
			t.Errorf("rescued pair not proper: partner %d, mate %d", partner.Pos, m.Pos)
		}
	}
	if rescued < len(pairs)*8/10 {
		t.Errorf("rescued only %d/%d mates", rescued, len(pairs))
	}
}

func TestRescueReversePartner(t *testing.T) {
	ref := readsim.GenerateReference(readsim.DefaultGenome(20000, 2))
	pairs := readsim.SimulatePairs(ref, readsim.DefaultPairProfile(20, 5))
	opt := DefaultOptions()
	rescued := 0
	for _, p := range pairs {
		partner := Mate{Mapped: true, Pos: p.R2.Origin, RefLen: len(p.R2.Seq), Reverse: true}
		m, ok := Rescue(ref, p.R1.Seq, partner, opt)
		if !ok {
			continue
		}
		rescued++
		if m.Reverse {
			t.Fatal("rescued mate must be on the forward strand")
		}
		if proper, _ := Proper(partner, m, opt); !proper {
			t.Errorf("rescued pair not proper")
		}
	}
	if rescued < len(pairs)*8/10 {
		t.Errorf("rescued only %d/%d mates", rescued, len(pairs))
	}
}

func TestRescueRejectsForeignMate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ref := readsim.GenerateReference(readsim.DefaultGenome(20000, 3))
	partner := Mate{Mapped: true, Pos: 5000, RefLen: 101}
	foreign := make(dna.Sequence, 101)
	for i := range foreign {
		foreign[i] = dna.Base(rng.Intn(4))
	}
	if _, ok := Rescue(ref, foreign, partner, DefaultOptions()); ok {
		t.Error("random sequence rescued")
	}
}

func TestRescueEdgeCases(t *testing.T) {
	ref := readsim.GenerateReference(readsim.DefaultGenome(5000, 4))
	opt := DefaultOptions()
	if _, ok := Rescue(ref, nil, Mate{Mapped: true, Pos: 100, RefLen: 101}, opt); ok {
		t.Error("empty mate rescued")
	}
	if _, ok := Rescue(ref, ref[:101].Clone(), Mate{}, opt); ok {
		t.Error("unmapped partner used for rescue")
	}
	// Partner near the reference end: window clamps, may fail gracefully.
	partner := Mate{Mapped: true, Pos: len(ref) - 102, RefLen: 101}
	Rescue(ref, ref[:101].Clone(), partner, opt) // must not panic
}

// BenchmarkMateRescue measures the banded-fit mate rescue path.
func BenchmarkMateRescue(b *testing.B) {
	ref := readsim.GenerateReference(readsim.DefaultGenome(64<<10, 7))
	p := readsim.SimulatePairs(ref, readsim.DefaultPairProfile(1, 11))[0]
	partner := Mate{Mapped: true, Pos: p.R1.Origin, RefLen: len(p.R1.Seq)}
	opt := DefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := Rescue(ref, p.R2.Seq, partner, opt); !ok {
			b.Fatal("rescue failed")
		}
	}
}
