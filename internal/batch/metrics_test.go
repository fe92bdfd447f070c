package batch_test

import (
	"bytes"
	"reflect"
	"testing"

	"casa/internal/batch"
	"casa/internal/dna"
	"casa/internal/engine"
	"casa/internal/ert"
	"casa/internal/metrics"
)

// TestSeedGenCacheDeterminism extends the worker-count determinism matrix
// to an order-sensitive cache model. The one the registry ships is ERT's
// root reuse cache: it is replayed from the recorded root streams during
// Reduce, so with a cache small enough to evict, hit/miss counts — and
// with them DRAM traffic, time and energy — must be byte-identical to the
// sequential run at every pool size.
func TestSeedGenCacheDeterminism(t *testing.T) {
	ref, reads := testWorkload(t, 1<<15, 150)
	// 1,024 root entries: small enough to evict, large enough to hit
	// across neighbouring reads, so the replay order changes the counts.
	cfg := ert.DefaultAccelConfig()
	cfg.CacheBytes = 1 << 16
	acc, err := ert.NewAccelerator(ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := acc.SeedReads(reads)
	if want.CacheHits == 0 || want.CacheMiss == 0 {
		t.Fatalf("degenerate cache workload (hits=%d misses=%d)", want.CacheHits, want.CacheMiss)
	}
	// The same reads replayed in a different order: shards of 8, last
	// shard first.
	var shuffled []*ert.Activity
	for hi := len(reads); hi > 0; hi -= 8 {
		shuffled = append(shuffled, acc.Seed(reads[max(hi-8, 0):hi]))
	}
	if r := acc.Reduce(shuffled...); r.CacheHits == want.CacheHits {
		t.Fatalf("cache replay is order-insensitive on this workload (hits=%d either way)", r.CacheHits)
	}
	for _, w := range workerCounts {
		got := batch.SeedEngine(engine.ERT(acc), reads, batch.Options{Workers: w})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: batch Result differs from sequential SeedReads", w)
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
	e.Reduce([]engine.Activity{act}).PublishModelMetrics(reg)
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
