package engine_test

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"casa/internal/core"
	"casa/internal/dna"
	"casa/internal/engine"
	"casa/internal/readsim"
	"casa/internal/smem"
)

func testRef(t *testing.T) dna.Sequence {
	t.Helper()
	return readsim.GenerateReference(readsim.DefaultGenome(1<<13, 3))
}

func TestListOrderAndGolden(t *testing.T) {
	// package shard's init registers one composite per persisting engine
	// plus the oracle, in the flat registration order.
	want := []string{"casa", "ert", "genax", "cpu", "fmindex", "brute",
		"sharded:casa", "sharded:cpu", "sharded:fmindex", "sharded:brute"}
	got := engine.Names()
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("registration order %v, want %v", got, want)
	}
	for _, f := range engine.List() {
		// Golden-ness propagates through the sharded composite: the
		// sharded oracle is still an oracle.
		if f.Golden != (strings.TrimPrefix(f.Name, "sharded:") == "brute") {
			t.Errorf("%s: Golden=%v", f.Name, f.Golden)
		}
		if f.Description == "" {
			t.Errorf("%s: no description", f.Name)
		}
	}
}

func TestLookupAliases(t *testing.T) {
	for alias, name := range map[string]string{
		"bruteforce": "brute", "golden": "brute", "bwa": "cpu", "fm": "fmindex",
		"sharded:golden": "sharded:brute", "sharded:fm": "sharded:fmindex",
	} {
		f, ok := engine.Lookup(alias)
		if !ok || f.Name != name {
			t.Errorf("Lookup(%q) = %v, %v; want factory %q", alias, f.Name, ok, name)
		}
	}
}

func TestUnknownEngineError(t *testing.T) {
	_, err := engine.New("warp-drive", testRef(t), engine.Options{})
	if err == nil {
		t.Fatal("no error for unknown engine")
	}
	msg := err.Error()
	if !strings.HasPrefix(msg, "engine: unknown engine") {
		t.Errorf("error %q should carry the registry's prefix", msg)
	}
	for _, name := range engine.Names() {
		if !strings.Contains(msg, name) {
			t.Errorf("error %q should list registered engine %q", msg, name)
		}
	}
}

func TestBuildUnwrapsConcreteType(t *testing.T) {
	ref := testRef(t)
	cfg := core.DefaultConfig()
	cfg.PartitionBases = len(ref)
	acc, err := engine.Build[*core.Accelerator]("casa", ref, engine.Options{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if acc.Config().PartitionBases != len(ref) {
		t.Fatalf("Config override not applied: %+v", acc.Config())
	}
	if _, err := engine.Build[*core.Accelerator]("ert", ref, engine.Options{}); err == nil {
		t.Fatal("Build should reject a type mismatch")
	}
}

func TestConfigTypeMismatch(t *testing.T) {
	ref := testRef(t)
	for _, name := range []string{"casa", "ert", "genax", "cpu", "sharded:casa"} {
		if _, err := engine.New(name, ref, engine.Options{Config: 42}); err == nil {
			t.Errorf("%s: accepted a bogus Config", name)
		}
	}
}

func TestEveryEngineSeedsAndReduces(t *testing.T) {
	ref := testRef(t)
	reads := readsim.Sequences(readsim.Simulate(ref, readsim.DefaultProfile(8, 7)))
	for _, f := range engine.List() {
		e, err := engine.New(f.Name, ref, engine.Options{MinSMEM: 19, TableK: 8})
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		if e.Name() != f.Name {
			t.Errorf("%s: Name() = %q", f.Name, e.Name())
		}
		c := e.Clone()
		act := c.SeedTrace(reads, nil, 0)
		res := c.Reduce([]engine.Activity{act})
		got := c.SMEMs(res)
		if len(got) != len(reads) {
			t.Fatalf("%s: %d SMEM sets for %d reads", f.Name, len(got), len(reads))
		}
		total := 0
		for _, ms := range got {
			total += len(ms)
		}
		if total == 0 {
			t.Errorf("%s: no SMEMs on an error-free workload", f.Name)
		}
	}
}

func TestOptionalInterfaces(t *testing.T) {
	ref := testRef(t)
	modeled := map[string]bool{"casa": true, "ert": true, "genax": true, "cpu": true}
	for _, f := range engine.List() {
		e, err := engine.New(f.Name, ref, engine.Options{})
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		// Sharded composites forward every capability dynamically, so
		// they satisfy Modeler and CycleCoster for any inner engine
		// (reporting zero when the inner has no model).
		sharded := strings.HasPrefix(f.Name, "sharded:")
		if _, ok := e.(engine.Modeler); ok != (modeled[f.Name] || sharded) {
			t.Errorf("%s: Modeler=%v, want %v", f.Name, ok, modeled[f.Name] || sharded)
		}
		// Positioner stays casa-only: sharded per-shard hit positions are
		// shard-local and deliberately not exposed as global positions.
		if _, ok := e.(engine.Positioner); ok != (f.Name == "casa") {
			t.Errorf("%s: Positioner=%v", f.Name, ok)
		}
		if _, ok := e.(engine.CycleCoster); ok != (f.Name == "casa" || sharded) {
			t.Errorf("%s: CycleCoster=%v", f.Name, ok)
		}
		if _, ok := e.(engine.Unwrapper); !ok {
			t.Errorf("%s: no Unwrapper", f.Name)
		}
		if _, ok := e.(engine.StrandSeeder); ok != modeled[f.Name] {
			t.Errorf("%s: StrandSeeder=%v", f.Name, ok)
		}
	}
}

// TestStrandSeedsMatchReverseComplementPass requires a StrandSeeder's
// Seeds to carry, as Reverse, exactly the SMEMs a second pass over the
// reverse-complemented reads finds, and every other engine's Seeds to
// leave Reverse nil.
func TestStrandSeedsMatchReverseComplementPass(t *testing.T) {
	ref := testRef(t)
	reads := readsim.Sequences(readsim.Simulate(ref, readsim.DefaultProfile(12, 5)))
	rcs := make([]dna.Sequence, len(reads))
	for i, r := range reads {
		rcs[i] = r.ReverseComplement()
	}
	for _, f := range engine.List() {
		e, err := engine.New(f.Name, ref, engine.Options{MinSMEM: 19, TableK: 8})
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		// Two shards, so activitySeeds walks more than one activity.
		acts := []engine.Activity{e.SeedTrace(reads[:5], nil, 0), e.SeedTrace(reads[5:], nil, 5)}
		seeds := e.Seeds(acts)
		if len(seeds) != len(reads) {
			t.Fatalf("%s: %d seeds for %d reads", f.Name, len(seeds), len(reads))
		}
		_, both := e.(engine.StrandSeeder)
		want := e.SMEMs(e.Reduce([]engine.Activity{e.SeedTrace(rcs, nil, 0)}))
		for i, s := range seeds {
			switch {
			case both && !smem.Equal(s.Reverse, want[i]):
				t.Errorf("%s read %d: Reverse %v, reverse-complement pass %v", f.Name, i, s.Reverse, want[i])
			case !both && s.Reverse != nil:
				t.Errorf("%s read %d: Reverse set by an engine that is not a StrandSeeder", f.Name, i)
			}
		}
	}
}

func TestExactModeIsGoldenComparable(t *testing.T) {
	// A smoke check here; the full randomized conformance harness lives
	// in internal/smem (TestRegistryEnginesMatchGolden).
	ref := testRef(t)
	reads := readsim.Sequences(readsim.Simulate(ref, readsim.DefaultProfile(4, 11)))
	golden := smem.BruteForce{Ref: ref}
	for _, f := range engine.List() {
		if f.Golden {
			continue
		}
		e, err := engine.New(f.Name, ref, engine.Options{MinSMEM: 19, TableK: 7, Exact: true})
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		act := e.SeedTrace(reads, nil, 0)
		got := e.SMEMs(e.Reduce([]engine.Activity{act}))
		for i, read := range reads {
			if want := golden.FindSMEMs(read, 19); !smem.Equal(want, got[i]) {
				t.Errorf("%s read %d:\n got %v\nwant %v", f.Name, i, got[i], want)
			}
		}
	}
}

func TestWriteList(t *testing.T) {
	var sb strings.Builder
	engine.WriteList(&sb)
	out := sb.String()
	for _, name := range engine.Names() {
		if !strings.Contains(out, name) {
			t.Errorf("listing misses %q:\n%s", name, out)
		}
	}
	if !strings.Contains(out, "bruteforce") {
		t.Errorf("listing misses aliases:\n%s", out)
	}
}

// TestPartitionedEnginesLimitReads: casa and genax cut into several
// partitions or segments refuse a read past the overlap plus one, with
// ErrReadTooLong, and a sharded composite refuses what its inner engines
// refuse; in one partition or segment they take any read.
func TestPartitionedEnginesLimitReads(t *testing.T) {
	ref := testRef(t)
	limit := core.DefaultPartitionOverlap + 1
	check := func(e engine.Engine, n int) error {
		return engine.CheckReads(e, []dna.Sequence{make(dna.Sequence, n)}, []string{"r"})
	}
	for _, tc := range []struct {
		name string
		opt  engine.Options
		cuts bool
	}{
		{"casa", engine.Options{Partition: 1024}, true},
		{"genax", engine.Options{Partition: 1024, TableK: 8}, true},
		{"sharded:casa", engine.Options{Partition: 1024, Shards: 2}, true},
		{"casa", engine.Options{}, false},
		{"genax", engine.Options{TableK: 8, Exact: true}, false},
	} {
		e, err := engine.New(tc.name, ref, tc.opt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := check(e, limit); err != nil {
			t.Errorf("%s %+v: a %d-base read: %v", tc.name, tc.opt, limit, err)
		}
		err = check(e, limit+1)
		if refused := errors.Is(err, engine.ErrReadTooLong); refused != tc.cuts {
			t.Errorf("%s %+v: a %d-base read: error %v, want refused %v", tc.name, tc.opt, limit+1, err, tc.cuts)
		}
	}
}

// TestPositionsLocateMatchesScan requires the FM-index engines' hit
// positions, located in their suffix arrays, and casa's, resolved
// through its partitions' filters, to equal the direct scan's: every
// occurrence in ascending order, cut at max, on a reference where one
// segment repeats twelve times. casa cuts the reference into six
// partitions, so the repeats straddle its overlaps.
func TestPositionsLocateMatchesScan(t *testing.T) {
	ref := testRef(t)
	for range 12 {
		ref = append(ref, ref[1000:1200]...)
	}
	reads := []dna.Sequence{ref[1050:1151], ref[500:601], ref[len(ref)-101:]}
	reads = append(reads, readsim.Sequences(readsim.Simulate(ref, readsim.DefaultProfile(10, 5)))...)
	// Reads across casa's cuts, with a substitution that leaves an SMEM
	// inside the overlap, which both partitions find.
	for cut := 2048 - core.DefaultPartitionOverlap; cut+81 <= len(ref); cut += 2048 - core.DefaultPartitionOverlap {
		read := append(dna.Sequence(nil), ref[cut-20:cut+81]...)
		read[50] ^= 1
		reads = append(reads, read)
	}
	for _, name := range []string{"fmindex", "cpu", "casa"} {
		e, err := engine.New(name, ref, engine.Options{MinSMEM: 19, Partition: 2048})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		locate := func(read dna.Sequence, m smem.Match, max int) []int32 { return engine.Positions(e, ref, read, m, max) }
		if p, ok := e.(engine.Positioner); ok {
			locate = p.HitPositions
		}
		scan := struct{ engine.Engine }{e} // hides the FM-index from Positions
		repeated := false
		for i, read := range reads {
			for _, m := range e.SMEMs(e.Reduce([]engine.Activity{e.SeedTrace([]dna.Sequence{read}, nil, 0)}))[0] {
				repeated = repeated || m.Hits > 4
				for _, max := range []int{0, 1, 4} {
					got, want := locate(read, m, max), engine.Positions(scan, ref, read, m, max)
					if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
						t.Fatalf("%s read %d %v max %d: located %v, scan %v", name, i, m, max, got, want)
					}
				}
			}
		}
		if !repeated {
			t.Errorf("%s: no SMEM has more hits than max", name)
		}
	}
}
