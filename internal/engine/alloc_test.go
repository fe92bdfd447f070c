package engine_test

import (
	"strings"
	"testing"

	"casa/internal/engine"
	"casa/internal/readsim"
)

// perReadAllocators lists the engines whose steady-state per-read path
// legitimately allocates, with the reason. Everything else registered in
// the engine list must expose the allocation-free ReadSeeder path and
// hold exactly zero allocations per read once its scratch is warm. A new
// engine fails this test until it either goes allocation-free or is
// added here with a justification.
var perReadAllocators = map[string]string{
	// The oracle recomputes every SMEM from the definition with fresh
	// quadratic scans; it exists to be obviously correct, not fast.
	"brute": "definition-based oracle, allocates per scan by design",
	// The ERT walk materialises per-read trees/paths as it descends.
	"ert": "radix-tree walk builds per-read node state",
	// GenAx's automaton model allocates per-read state machines.
	"genax": "Sitara automaton model allocates per-read machine state",
}

// TestSeedZeroAlloc pins the tentpole guarantee: for every registered
// engine with the ReadSeeder capability, a warmed worker clone performs
// zero heap allocations per read. testing.AllocsPerRun averages over
// runs, so a single stray allocation anywhere in the hot path fails.
func TestSeedZeroAlloc(t *testing.T) {
	ref := readsim.GenerateReference(readsim.DefaultGenome(1<<14, 3))
	reads := readsim.Sequences(readsim.Simulate(ref, readsim.DefaultProfile(32, 5)))
	opt := engine.Options{
		MinSMEM:   19,
		Partition: len(ref) / 2,
		TableK:    8,
	}
	for name := range perReadAllocators {
		if _, ok := engine.Lookup(name); !ok {
			t.Errorf("%s: excused but not registered; drop its stale excuse", name)
		}
	}

	for _, f := range engine.List() {
		f := f
		// A sharded composite is allocation-free exactly when its inner
		// engine is: the merge path reuses per-clone scratch, so the
		// inner engine's excuse (or lack of one) carries over.
		excuseKey := strings.TrimPrefix(f.Name, "sharded:")
		t.Run(f.Name, func(t *testing.T) {
			e, err := engine.New(f.Name, ref, opt)
			if err != nil {
				t.Fatal(err)
			}
			// Workers always seed on clones; so does this test, which also
			// pins that Clone hands out instances with independent scratch.
			w := e.Clone()
			rs, ok := w.(engine.ReadSeeder)
			var dst engine.Seeds
			if ok && len(reads) > 0 {
				ok = rs.SeedReadInto(&dst, reads[0])
			}
			if !ok {
				reason, excused := perReadAllocators[excuseKey]
				if !excused {
					t.Fatalf("engine %q has no allocation-free ReadSeeder path and is not excused", f.Name)
				}
				t.Skipf("allocating by design: %s", reason)
			}
			if reason, excused := perReadAllocators[excuseKey]; excused {
				t.Fatalf("engine %q is excused as %q but supports the zero-alloc path; drop the excuse", f.Name, reason)
			}

			// Warm the scratch over the whole corpus: buffers only grow, so
			// after one full pass every read fits without reallocation.
			for _, r := range reads {
				rs.SeedReadInto(&dst, r)
			}

			i := 0
			allocs := testing.AllocsPerRun(3*len(reads), func() {
				rs.SeedReadInto(&dst, reads[i%len(reads)])
				i++
			})
			if allocs != 0 {
				t.Errorf("engine %q: %v allocs per seeded read, want 0", f.Name, allocs)
			}
		})
	}
}
