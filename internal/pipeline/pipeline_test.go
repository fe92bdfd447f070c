package pipeline

import (
	"testing"

	"casa/internal/core"
	"casa/internal/cpu"
	"casa/internal/dna"
	"casa/internal/engine"
	"casa/internal/ert"
	"casa/internal/genax"
	"casa/internal/readsim"
	"casa/internal/seedex"
)

// testEngines builds small-geometry engines over a shared reference.
func testEngines(t *testing.T, refLen int, seed int64) (*Engines, dna.Sequence) {
	t.Helper()
	ref := readsim.GenerateReference(readsim.DefaultGenome(refLen, seed))

	casaCfg := core.DefaultConfig()
	casaCfg.K, casaCfg.M, casaCfg.MinSMEM = 13, 7, 19
	casaCfg.PartitionBases = 1 << 16

	ertCfg := ert.DefaultAccelConfig()
	ertCfg.Index = ert.Config{K: 13, MinSMEM: 19, MaxDepth: 128}

	genaxCfg := genax.DefaultConfig()
	genaxCfg.K = 9
	genaxCfg.PartitionBases = 1 << 16

	e := &Engines{}
	var err error
	if e.CASA, err = engine.Build[*core.Accelerator]("casa", ref, engine.Options{Config: casaCfg}); err != nil {
		t.Fatal(err)
	}
	if e.ERT, err = engine.Build[*ert.Accelerator]("ert", ref, engine.Options{Config: ertCfg}); err != nil {
		t.Fatal(err)
	}
	if e.GenAx, err = engine.Build[*genax.Accelerator]("genax", ref, engine.Options{Config: genaxCfg}); err != nil {
		t.Fatal(err)
	}
	if e.BWA, err = engine.Build[*cpu.Seeder]("cpu", ref, engine.Options{Config: cpu.B12T()}); err != nil {
		t.Fatal(err)
	}
	if e.SeedEx, err = seedex.New(ref, seedex.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	return e, ref
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Error(err)
	}
	bad := DefaultConfig()
	bad.DiskGBs = 0
	if bad.Validate() == nil {
		t.Error("zero disk bandwidth accepted")
	}
}

func TestBreakdownTotalAndNormalize(t *testing.T) {
	b := Breakdown{IO: 1, Seeding: 2, PreProcessing: 3, Extension: 4, Overlapped: 5, PostProcessing: 6}
	if b.Total() != 21 {
		t.Errorf("Total = %f", b.Total())
	}
	n := b.Normalize(21)
	if got := n.Total(); got < 0.999 || got > 1.001 {
		t.Errorf("normalized total = %f", got)
	}
	if same := b.Normalize(0); same != b {
		t.Error("Normalize(0) must be a no-op")
	}
}

func TestRunEndToEnd(t *testing.T) {
	e, ref := testEngines(t, 120000, 1)
	reads := readsim.Sequences(readsim.Simulate(ref, readsim.DefaultProfile(40, 7)))
	res, err := Run(e, reads, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Breakdowns) != 4 {
		t.Fatalf("got %d breakdowns, want 4", len(res.Breakdowns))
	}
	names := map[string]bool{}
	for _, b := range res.Breakdowns {
		names[b.System] = true
		if b.Total() <= 0 {
			t.Errorf("%s: zero total time", b.System)
		}
	}
	for _, want := range []string{"BWA-MEM2", "CASA+SeedEx", "ERT+SeedEx", "GenAx+SeedEx"} {
		if !names[want] {
			t.Errorf("system %q missing", want)
		}
	}
	// Most simulated reads must align.
	if res.Aligned < len(reads)*8/10 {
		t.Errorf("only %d/%d reads aligned", res.Aligned, len(reads))
	}
	if res.TotalSeeds <= 0 {
		t.Error("no seeds counted")
	}
}

func TestRunOrderingMatchesFig14(t *testing.T) {
	// The paper's ordering: CASA+SeedEx fastest, then GenAx+SeedEx, then
	// ERT+SeedEx, then BWA-MEM2 (CASA 1.4x GenAx, 2.4x ERT, 6x BWA).
	e, ref := testEngines(t, 200000, 2)
	reads := readsim.Sequences(readsim.Simulate(ref, readsim.DefaultProfile(60, 11)))
	res, err := Run(e, reads, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]float64{}
	for _, b := range res.Breakdowns {
		byName[b.System] = b.Total()
	}
	if !(byName["CASA+SeedEx"] <= byName["GenAx+SeedEx"]) {
		t.Errorf("CASA (%.2e) slower than GenAx (%.2e)", byName["CASA+SeedEx"], byName["GenAx+SeedEx"])
	}
	if !(byName["CASA+SeedEx"] < byName["BWA-MEM2"]) {
		t.Errorf("CASA (%.2e) not faster than BWA (%.2e)", byName["CASA+SeedEx"], byName["BWA-MEM2"])
	}
	if !(byName["ERT+SeedEx"] < byName["BWA-MEM2"]) {
		t.Errorf("ERT (%.2e) not faster than BWA (%.2e)", byName["ERT+SeedEx"], byName["BWA-MEM2"])
	}
}

func TestRunStructuralClaims(t *testing.T) {
	e, ref := testEngines(t, 120000, 3)
	reads := readsim.Sequences(readsim.Simulate(ref, readsim.DefaultProfile(30, 13)))
	res, err := Run(e, reads, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range res.Breakdowns {
		switch b.System {
		case "CASA+SeedEx", "GenAx+SeedEx":
			if b.Overlapped <= 0 {
				t.Errorf("%s: no overlapped seeding+extension", b.System)
			}
			if b.Seeding != 0 || b.Extension != 0 || b.PreProcessing != 0 {
				t.Errorf("%s: serial components must be zero: %+v", b.System, b)
			}
		case "ERT+SeedEx":
			if b.Overlapped != 0 {
				t.Errorf("ERT must not overlap: %+v", b)
			}
			if b.PreProcessing <= 0 {
				t.Errorf("ERT needs CPU preprocessing: %+v", b)
			}
		case "BWA-MEM2":
			if b.Seeding <= 0 || b.Extension <= 0 {
				t.Errorf("BWA components missing: %+v", b)
			}
		}
	}
}

func TestAlignmentsLandAtOrigin(t *testing.T) {
	// End-to-end correctness: exact simulated reads must align back to
	// their sampled origin.
	e, ref := testEngines(t, 100000, 4)
	sim := readsim.Simulate(ref, readsim.ReadProfile{Length: 101, Count: 30, Seed: 17})
	reads := readsim.Sequences(sim)
	res, err := Run(e, reads, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Aligned < 25 {
		t.Fatalf("only %d/30 exact reads aligned", res.Aligned)
	}
	// Map alignments back: exact reads must either land at their origin
	// or at an equally perfect copy elsewhere (repeat arrays make exact
	// reads genuinely multi-mapping; edit distance 0 proves the placement
	// is as good as the origin).
	for i := range reads {
		c, ok := ChooseStrand(e.SeedEx, reads[i], engine.Seeds(e.CASA.SeedReads(reads[i : i+1]).Reads[0]), e.CASA.HitPositions, 4)
		if !ok {
			continue
		}
		al := c.Al
		if sim[i].Errors == 0 && al.RefStart != sim[i].Origin && al.EditDist != 0 {
			t.Errorf("read %d aligned at %d (edit %d), simulated origin %d",
				i, al.RefStart, al.EditDist, sim[i].Origin)
		}
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	e, ref := testEngines(t, 50000, 5)
	reads := readsim.Sequences(readsim.Simulate(ref, readsim.DefaultProfile(5, 19)))
	bad := DefaultConfig()
	bad.MaxHitsPerSMEM = 0
	if _, err := Run(e, reads, bad); err == nil {
		t.Error("invalid pipeline config accepted")
	}
}
