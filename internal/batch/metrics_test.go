package batch_test

import (
	"bytes"
	"reflect"
	"testing"

	"casa/internal/batch"
	"casa/internal/dna"
	"casa/internal/engine"
	"casa/internal/gencache"
	"casa/internal/metrics"
)

func testGenCache(t *testing.T, fast bool) *gencache.Accelerator {
	t.Helper()
	ref, _ := testWorkload(t, 1<<15, 0)
	cfg := gencache.DefaultConfig()
	cfg.GenAx.K = 8                    // keep the 4^K seed table test-sized
	cfg.GenAx.PartitionBases = 1 << 13 // 4 segments
	cfg.CacheBytes = 1 << 12           // tiny cache: hits AND misses occur
	cfg.FastSeeding = fast
	acc, err := gencache.New(ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return acc
}

// TestSeedGenCacheDeterminism extends the worker-count determinism matrix
// to GenCache: the order-sensitive multi-bank cache is replayed from the
// recorded fetch streams during Reduce, so hit/miss counts — and with
// them DRAM traffic, time and energy — must be byte-identical to the
// sequential run at every pool size.
func TestSeedGenCacheDeterminism(t *testing.T) {
	for _, fast := range []bool{true, false} {
		acc := testGenCache(t, fast)
		_, reads := testWorkload(t, 1<<15, 150)
		want := acc.SeedReads(reads)
		if want.Stats.CacheHits == 0 || want.Stats.CacheMisses == 0 {
			t.Fatalf("fast=%v: degenerate cache workload (hits=%d misses=%d)",
				fast, want.Stats.CacheHits, want.Stats.CacheMisses)
		}
		for _, w := range workerCounts {
			got := batch.Seed[*gencache.Result](engine.GenCache(acc), reads, batch.Options{Workers: w})
			if !reflect.DeepEqual(got, want) {
				t.Errorf("fast=%v workers=%d: batch Result differs from sequential SeedReads", fast, w)
			}
		}
	}
}

func jsonBytes(t *testing.T, reg *metrics.Registry) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sequentialRegistry runs one whole-batch pass on a fresh engine and
// publishes what the batch path would: the activity's counters, then the
// reduced model metrics. It is the reference a batch run of any worker
// count must match.
func sequentialRegistry(t *testing.T, name string, ref dna.Sequence, reads []dna.Sequence) *metrics.Registry {
	t.Helper()
	e, err := engine.New(name, ref, testEngineOptions)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	act := e.SeedTrace(reads, nil, 0)
	act.PublishMetrics(reg)
	e.Reduce(reads, []engine.Activity{act}).PublishModelMetrics(reg)
	return reg
}

// TestBatchMetricsDeterminism is the registry-wide metrics regression:
// for every registered engine, the per-worker registries merged at Reduce
// must be byte-identical (as serialized JSON) to the registry a
// sequential run publishes, at workers = 1, 2, 4, 16. Each worker count
// seeds the same instance twice in a row: every counter lives in the
// shard activities, so a repeated call publishes what the first did,
// however the pool scheduled the shards.
func TestBatchMetricsDeterminism(t *testing.T) {
	ref, reads := testWorkload(t, 1<<15, 150)
	for _, f := range engine.List() {
		if f.Golden {
			continue // the oracle models nothing and publishes nothing
		}
		want := sequentialRegistry(t, f.Name, ref, reads)
		if len(want.Snapshots()) == 0 {
			t.Fatalf("%s: sequential run published no metrics", f.Name)
		}
		wantJSON := jsonBytes(t, want)
		for _, w := range []int{1, 2, 4, 16} {
			e, err := engine.New(f.Name, ref, testEngineOptions)
			if err != nil {
				t.Fatal(err)
			}
			for call := 1; call <= 2; call++ {
				reg := metrics.New()
				batch.SeedEngine(e, reads, batch.Options{Workers: w, Metrics: reg})
				if !metrics.Equal(reg, want) {
					t.Errorf("%s workers=%d call %d: merged registry differs from sequential:\n%s",
						f.Name, w, call, metrics.Diff(reg, want))
					continue
				}
				if !bytes.Equal(jsonBytes(t, reg), wantJSON) {
					t.Errorf("%s workers=%d call %d: registry JSON not byte-identical to sequential", f.Name, w, call)
				}
			}
		}
	}
}
