package smem_test

import (
	"testing"

	"casa/internal/core"
	"casa/internal/dna"
	"casa/internal/engine"
	"casa/internal/readsim"
	"casa/internal/shard"
	"casa/internal/smem"
)

// fuzzRef is the fixed reference the fuzz target searches: small enough
// that one brute-force pass per input is cheap, repeat-rich enough that
// arbitrary reads still hit it.
func fuzzRef() dna.Sequence {
	return readsim.GenerateReference(readsim.DefaultGenome(2048, 3))
}

func fuzzAccelerator(ref dna.Sequence) (*core.Accelerator, core.Config, error) {
	cfg := core.DefaultConfig()
	cfg.K = 7
	cfg.M = 4
	cfg.Stride = 5
	cfg.Groups = 4
	cfg.MinSMEM = 11
	cfg.PartitionBases = len(ref)
	cfg.ExactMatchPrepass = false
	a, err := core.New(ref, cfg)
	return a, cfg, err
}

// fuzzPartition is the partition size of the fuzz target's partitioned
// engines: over the 2048-base fuzz reference it cuts partitions at
// [0, 1073), [973, 2046) and a near-empty tail [1946, 2048), 2 bases
// more than the 100-base overlap.
const fuzzPartition = 1073

// FuzzSMEMEnginesAgree feeds arbitrary read bytes (mapped onto 2-bit
// bases) to the brute-force golden finder and every registered engine in
// its Exact configuration and requires identical SMEM sets — intervals
// and hit counts. The single-partition CASA accelerator is additionally
// checked on the reverse strand (the registry interface reports forward
// SMEMs only). casa and genax cut into partitions, and casa as the
// inner engine of a sharded composite, must refuse a read past their cut
// limit and report the golden SMEM intervals for every other; their
// hit counts may differ, as an overlap's occurrences count once per
// partition.
func FuzzSMEMEnginesAgree(f *testing.F) {
	ref := fuzzRef()
	acc, cfg, err := fuzzAccelerator(ref)
	if err != nil {
		f.Fatal(err)
	}
	golden := smem.BruteForce{Ref: ref}
	var engines []engine.Engine
	for _, fac := range engine.List() {
		if fac.Golden {
			continue // the oracle defines `want`
		}
		e, err := engine.New(fac.Name, ref, engine.Options{MinSMEM: cfg.MinSMEM, TableK: 7, Exact: true})
		if err != nil {
			f.Fatal(err)
		}
		engines = append(engines, e)
	}
	partCfg := cfg
	partCfg.PartitionBases = fuzzPartition
	var partitioned []engine.Engine
	for _, b := range []struct {
		name string
		opt  engine.Options
	}{
		{"casa", engine.Options{Config: partCfg}},
		{"genax", engine.Options{MinSMEM: cfg.MinSMEM, TableK: 7, Partition: fuzzPartition}},
		{"sharded:casa", engine.Options{Config: partCfg}},
	} {
		e, err := engine.New(b.name, ref, b.opt)
		if err != nil {
			f.Fatal(err)
		}
		partitioned = append(partitioned, e)
	}

	f.Add([]byte(ref[100:201].String()))
	f.Add([]byte(ref[500:520].String()))
	f.Add([]byte("ACGTACGTACGTACGTACGT"))
	f.Add([]byte(""))
	f.Add([]byte("\x00\x01\x02\x03ACGT\xfe\xff repeats"))
	// Shapes that stress the blocked rank layout and the batched/width-1
	// extension fast paths: homopolymers (one bit plane saturated, maximal
	// interval widths), ambiguity-collapsed runs (an N-run maps to a
	// single-base run mid-read), reads shorter than one 64-symbol block,
	// and lengths just off the 64 boundary.
	f.Add([]byte("AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"))
	f.Add([]byte("TTTTTTTTTTTTTTTTTTTTTTTTTTTTTTT"))
	f.Add([]byte(ref[0:20].String() + "NNNNNNNNNNNNNNNN" + ref[40:60].String()))
	f.Add([]byte(ref[300:313].String()))
	f.Add([]byte(ref[600:663].String()))
	f.Add([]byte(ref[700:765].String()))
	f.Add([]byte(ref[800:930].String()))
	// Reads that straddle a cut: ending 0, 1 and overlap bases past the
	// last base of a partition (its next partition starts overlap bases
	// before it) or of the first shard, at the longest read a partition
	// cut keeps whole and at the 256-base maximum, which the partitioned
	// engines refuse.
	for _, cut := range []struct{ end, overlap int }{
		{fuzzPartition, core.DefaultPartitionOverlap},
		{2*fuzzPartition - core.DefaultPartitionOverlap, core.DefaultPartitionOverlap},
		{len(ref)/shard.DefaultShards + shard.DefaultOverlap, shard.DefaultOverlap},
	} {
		for _, d := range []int{0, 1, cut.overlap} {
			end := min(cut.end+d, len(ref))
			for _, n := range []int{core.DefaultPartitionOverlap + 1, 256} {
				f.Add([]byte(ref[end-n : end].String()))
			}
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 256 {
			raw = raw[:256] // keep the brute-force oracle cheap
		}
		read := make(dna.Sequence, len(raw))
		for i, c := range raw {
			read[i] = dna.Base(c & 3)
		}
		want := golden.FindSMEMs(read, cfg.MinSMEM)
		for _, e := range engines {
			if got := seedEngine(e, []dna.Sequence{read})[0]; !smem.Equal(want, got) {
				t.Fatalf("forward SMEMs disagree on %q:\n %s %v\nbrute %v", read, e.Name(), got, want)
			}
		}
		for _, e := range partitioned {
			if engine.CheckReads(e, []dna.Sequence{read}, []string{"read"}) != nil {
				if len(read) <= core.DefaultPartitionOverlap+1 {
					t.Fatalf("%s refused a %d-base read", e.Name(), len(read))
				}
				continue
			}
			if got := seedEngine(e, []dna.Sequence{read})[0]; !smem.SameIntervals(want, got) {
				t.Fatalf("forward SMEM intervals disagree on %q:\n partitioned %s %v\nbrute %v", read, e.Name(), got, want)
			}
		}
		res := acc.SeedReads([]dna.Sequence{read})
		if got := res.Reads[0].Forward; !smem.Equal(want, got) {
			t.Fatalf("forward SMEMs disagree on %q:\n casa %v\nbrute %v", read, got, want)
		}
		wantR := golden.FindSMEMs(read.ReverseComplement(), cfg.MinSMEM)
		if got := res.Reads[0].Reverse; !smem.Equal(wantR, got) {
			t.Fatalf("reverse SMEMs disagree on %q:\n casa %v\nbrute %v", read, got, wantR)
		}
	})
}
