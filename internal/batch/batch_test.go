package batch_test

import (
	"reflect"
	"testing"

	"casa/internal/batch"
	"casa/internal/core"
	"casa/internal/cpu"
	"casa/internal/dna"
	"casa/internal/engine"
	"casa/internal/ert"
	"casa/internal/genax"
	"casa/internal/readsim"
	"casa/internal/smem"
)

// workerCounts is the determinism-regression matrix: every engine's batch
// result must be byte-identical across these pool sizes (and to a plain
// sequential run).
var workerCounts = []int{1, 4, 16}

// testEngineOptions are the registry construction knobs the batch
// regression matrix runs under: multi-partition geometry over the
// 1<<15-base test reference (4 partitions at 1<<13), test-sized seed
// tables, and a gencache cache small enough that hits AND misses occur.
var testEngineOptions = engine.Options{Partition: 1 << 13, TableK: 8, CacheBytes: 1 << 12}

// testEngines builds one instance of every registered engine over ref
// with the shared test options. The golden oracle is skipped: it is a
// validation tool (quadratic, no cost model), not a batch subject.
func testEngines(t *testing.T, ref dna.Sequence) []engine.Engine {
	t.Helper()
	var out []engine.Engine
	for _, f := range engine.List() {
		if f.Golden {
			continue
		}
		e, err := engine.New(f.Name, ref, testEngineOptions)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		out = append(out, e)
	}
	return out
}

// sequentialResult reduces one whole-batch pass on a fresh clone — the
// reference a pooled run of any worker count must match bit-for-bit.
func sequentialResult(e engine.Engine, reads []dna.Sequence) engine.Result {
	c := e.Clone()
	act := c.SeedTrace(reads, nil, 0)
	return c.Reduce(reads, []engine.Activity{act})
}

func testWorkload(t *testing.T, refLen, nReads int) (dna.Sequence, []dna.Sequence) {
	t.Helper()
	ref := readsim.GenerateReference(readsim.DefaultGenome(refLen, 7))
	reads := readsim.Sequences(readsim.Simulate(ref, readsim.DefaultProfile(nReads, 11)))
	if len(reads) != nReads {
		t.Fatalf("simulated %d reads, want %d", len(reads), nReads)
	}
	return ref, reads
}

func TestRunCoversAllItemsInOrder(t *testing.T) {
	for _, tc := range []struct {
		n       int
		workers int
		grain   int
	}{
		{0, 4, 0}, {1, 4, 0}, {7, 1, 0}, {7, 4, 2}, {100, 3, 7},
		{100, 16, 1}, {5, 100, 0}, {64, 4, 64}, {33, 8, 0},
	} {
		shards := batch.Run(tc.n, batch.Options{Workers: tc.workers, Grain: tc.grain},
			func(worker, lo, hi int) []int {
				if worker < 0 || worker >= tc.workers {
					t.Errorf("worker index %d out of range [0, %d)", worker, tc.workers)
				}
				items := make([]int, 0, hi-lo)
				for i := lo; i < hi; i++ {
					items = append(items, i)
				}
				return items
			})
		var got []int
		for _, s := range shards {
			got = append(got, s...)
		}
		if len(got) != tc.n {
			t.Fatalf("n=%d workers=%d grain=%d: covered %d items", tc.n, tc.workers, tc.grain, len(got))
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("n=%d workers=%d grain=%d: item %d out of order (got %d)", tc.n, tc.workers, tc.grain, i, v)
			}
		}
	}
}

func TestRunWorkerExclusive(t *testing.T) {
	// Same-worker calls must never overlap: each worker bumps an owned
	// counter non-atomically; the race detector (go test -race) catches
	// any violation, and the totals must still cover every item.
	const n, workers = 1000, 8
	counts := make([]int, workers)
	batch.Run(n, batch.Options{Workers: workers, Grain: 1}, func(worker, lo, hi int) int {
		counts[worker] += hi - lo
		return 0
	})
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != n {
		t.Fatalf("workers processed %d items, want %d", total, n)
	}
}

// TestSeedEngineDeterminism is the registry-wide determinism regression:
// for every registered engine, the full batch Result — SMEMs, aggregate
// stats, cycles, DRAM bytes, energy, cache state — must be identical for
// workers = 1, 4, 16 and for the sequential path. A newly registered
// engine joins the matrix automatically.
func TestSeedEngineDeterminism(t *testing.T) {
	ref, reads := testWorkload(t, 1<<15, 150)
	for _, e := range testEngines(t, ref) {
		want := sequentialResult(e, reads)
		for _, w := range workerCounts {
			got := batch.SeedEngine(e, reads, batch.Options{Workers: w})
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s workers=%d: batch Result differs from sequential", e.Name(), w)
			}
		}
	}
}

// TestSeedCASAMatchesSeedReads anchors the typed generic path to CASA's
// native sequential entry point on a larger multi-partition workload
// (with the exact-match prepass active, as in the default config).
func TestSeedCASAMatchesSeedReads(t *testing.T) {
	ref, reads := testWorkload(t, 1<<16, 200)
	cfg := core.DefaultConfig()
	cfg.PartitionBases = 1 << 14 // 4 partitions
	acc, err := core.New(ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := acc.SeedReads(reads)
	for _, w := range workerCounts {
		got := batch.Seed[*core.Result](engine.CASA(acc), reads, batch.Options{Workers: w})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: batch Result differs from sequential SeedReads", w)
		}
	}
}

// TestSeedBaselinesMatchSeedReads anchors the baseline adapters to their
// engines' native SeedReads — the generic path must not change what the
// wrapped accelerators compute.
func TestSeedBaselinesMatchSeedReads(t *testing.T) {
	ref, reads := testWorkload(t, 1<<15, 150)
	ea, err := ert.NewAccelerator(ref, ert.DefaultAccelConfig())
	if err != nil {
		t.Fatal(err)
	}
	gcfg := genax.DefaultConfig()
	gcfg.K = 8                    // keep the 4^K seed table test-sized
	gcfg.PartitionBases = 1 << 13 // 4 segments
	ga, err := genax.New(ref, gcfg)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := cpu.New(ref, cpu.B12T())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		eng  engine.Engine
		want any
	}{
		{engine.ERT(ea), ea.SeedReads(reads)},
		{engine.GenAx(ga), ga.SeedReads(reads)},
		{engine.CPU(cs), cs.SeedReads(reads)},
	} {
		for _, w := range workerCounts {
			got := batch.SeedEngine(tc.eng, reads, batch.Options{Workers: w})
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("%s workers=%d: batch Result differs from sequential SeedReads", tc.eng.Name(), w)
			}
		}
	}
}

// TestFindSMEMsMatchesDirectCalls anchors the pooled fmindex engine to
// direct FindSMEMs calls on a standalone bidirectional finder.
func TestFindSMEMsMatchesDirectCalls(t *testing.T) {
	ref, reads := testWorkload(t, 1<<14, 120)
	f := smem.NewBidirectional(ref)
	want := make([][]smem.Match, len(reads))
	for i, r := range reads {
		want[i] = f.FindSMEMs(r, 19)
	}
	e, err := engine.New("fmindex", ref, engine.Options{MinSMEM: 19})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workerCounts {
		got := e.SMEMs(batch.SeedEngine(e, reads, batch.Options{Workers: w}))
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: pooled fmindex SMEMs differ from direct FindSMEMs calls", w)
		}
	}
}

// TestSeedResultTypeMismatchPanics pins the typed front door's failure
// mode: asking for the wrong concrete result type is a programming
// error, reported eagerly.
func TestSeedResultTypeMismatchPanics(t *testing.T) {
	ref, reads := testWorkload(t, 1<<13, 10)
	e, err := engine.New("cpu", ref, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on result-type mismatch")
		}
	}()
	batch.Seed[*core.Result](e, reads, batch.Options{Workers: 2})
}
