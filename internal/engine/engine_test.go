package engine_test

import (
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
	want := []string{"casa", "ert", "genax", "gencache", "cpu", "fmindex", "brute",
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
	for _, name := range []string{"casa", "ert", "genax", "gencache", "cpu", "sharded:casa"} {
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
		res := c.Reduce(reads, []engine.Activity{act})
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
	modeled := map[string]bool{"casa": true, "ert": true, "genax": true, "gencache": true, "cpu": true}
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
		got := e.SMEMs(e.Reduce(reads, []engine.Activity{act}))
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
