package batch_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"casa/internal/batch"
	"casa/internal/core"
	"casa/internal/dna"
	"casa/internal/engine"
	"casa/internal/metrics"
	"casa/internal/progress"
	"casa/internal/trace"
)

// TestRunCtxCancelDrainsClaimedShards pins the drain semantics
// deterministically: 4 workers each claim their first shard and block
// inside fn until the context is cancelled. After cancellation every
// claimed shard still completes (workers are never interrupted
// mid-shard) and no new shard is handed out, so the completed set is
// exactly the contiguous prefix of first claims.
func TestRunCtxCancelDrainsClaimedShards(t *testing.T) {
	const workers, n = 4, 8
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started := make(chan struct{}, workers)
	go func() { // cancel once all workers are inside their first shard
		for i := 0; i < workers; i++ {
			<-started
		}
		cancel()
	}()
	results, done, err := batch.RunCtx(ctx, n, batch.Options{Workers: workers, Grain: 1},
		func(worker, lo, hi int) int {
			started <- struct{}{}
			<-ctx.Done()
			return lo
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if done != workers {
		t.Fatalf("done = %d, want %d (one drained shard per worker)", done, workers)
	}
	if want := []int{0, 1, 2, 3}; !reflect.DeepEqual(results, want) {
		t.Fatalf("results = %v, want %v", results, want)
	}
}

// TestRunCtxCancelSequentialPath exercises the single-worker loop: fn
// cancels while processing shard 1, that shard drains, and the run stops
// before shard 2.
func TestRunCtxCancelSequentialPath(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	results, done, err := batch.RunCtx(ctx, 5, batch.Options{Workers: 1, Grain: 1},
		func(worker, lo, hi int) int {
			if lo == 1 {
				cancel()
			}
			return lo
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if done != 2 {
		t.Fatalf("done = %d, want 2", done)
	}
	if want := []int{0, 1}; !reflect.DeepEqual(results, want) {
		t.Fatalf("results = %v, want %v", results, want)
	}
}

// TestRunCtxPreCancelled starts with a dead context: no shard runs on
// either pool path.
func TestRunCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		results, done, err := batch.RunCtx(ctx, 10, batch.Options{Workers: workers, Grain: 1},
			func(worker, lo, hi int) int {
				t.Errorf("workers=%d: fn ran for shard [%d,%d) under a pre-cancelled context", workers, lo, hi)
				return 0
			})
		if !errors.Is(err, context.Canceled) || done != 0 || len(results) != 0 {
			t.Fatalf("workers=%d: results=%v done=%d err=%v", workers, results, done, err)
		}
	}
}

// TestProgressTerminalSnapshotDeterminism is the tentpole's determinism
// clause: with a fixed grain, the terminal snapshot's aggregate counters
// (reads, shards, modelled cycles) are identical for workers = 1, 4, 16.
// Per-worker distribution is scheduling-dependent and deliberately not
// compared.
func TestProgressTerminalSnapshotDeterminism(t *testing.T) {
	ref, reads := testWorkload(t, 1<<16, 200)
	cfg := core.DefaultConfig()
	cfg.PartitionBases = 1 << 14
	acc, err := core.New(ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const grain = 25
	wantShards := int64((len(reads) + grain - 1) / grain)

	type totals struct{ reads, shards, cycles int64 }
	var want totals
	for i, w := range workerCounts {
		tr := progress.New("run", "casa", w, int64(len(reads)))
		r, done, err := batch.SeedEngineCtx(context.Background(), engine.CASA(acc), reads,
			batch.Options{Workers: w, Grain: grain, Progress: tr})
		if err != nil || done != len(reads) {
			t.Fatalf("workers=%d: done=%d err=%v", w, done, err)
		}
		res := r.(*core.Result)
		if len(res.Reads) != len(reads) {
			t.Fatalf("workers=%d: result covers %d reads", w, len(res.Reads))
		}
		tr.Finish()
		s := tr.Snapshot()
		got := totals{s.ReadsDone, s.ShardsDone, s.ModelCycles}
		if got.reads != int64(len(reads)) || got.shards != wantShards {
			t.Fatalf("workers=%d: snapshot totals %+v, want %d reads / %d shards", w, got, len(reads), wantShards)
		}
		if got.cycles <= 0 {
			t.Fatalf("workers=%d: no model cycles attributed", w)
		}
		if !s.Done || s.PercentDone != 100 {
			t.Fatalf("workers=%d: terminal snapshot not terminal: %+v", w, s)
		}
		if i == 0 {
			want = got
		} else if got != want {
			t.Errorf("workers=%d: terminal totals %+v differ from workers=%d totals %+v", w, got, workerCounts[0], want)
		}
	}
}

// cancelOnShard wraps an engine so that every completed shard cancels
// the run's context before returning to the pool. No worker claims a
// second shard until its first SeedTrace returns, so the run stops after
// at most one shard per worker: a genuine partial prefix, independent of
// how fast the engine seeds.
type cancelOnShard struct {
	engine.Engine
	cancel context.CancelFunc
}

func (e cancelOnShard) Clone() engine.Engine {
	return cancelOnShard{e.Engine.Clone(), e.cancel}
}

func (e cancelOnShard) SeedTrace(reads []dna.Sequence, tb *trace.Buffer, base int) engine.Activity {
	act := e.Engine.SeedTrace(reads, tb, base)
	e.cancel()
	return act
}

func (e cancelOnShard) ActivityCycles(act engine.Activity) int64 {
	return e.Engine.(engine.CycleCoster).ActivityCycles(act)
}

// TestSeedCASACtxPartialRun cancels a casa seeding run mid-flight and checks
// the partial-telemetry contract: the Result covers exactly the reported
// contiguous read prefix, matches the sequential run over that prefix,
// and the metrics registry and trace spans for the partial run still
// serialize and validate.
func TestSeedCASACtxPartialRun(t *testing.T) {
	const workers, grain = 4, 5
	ref, reads := testWorkload(t, 1<<16, 200)
	cfg := core.DefaultConfig()
	cfg.PartitionBases = 1 << 14
	acc, err := core.New(ref, cfg)
	if err != nil {
		t.Fatal(err)
	}

	tr := progress.New("run", "casa", workers, int64(len(reads)))
	reg := metrics.New()
	tw := trace.New(trace.PolicyAll, 0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e := cancelOnShard{engine.CASA(acc.Clone()), cancel}
	r, done, runErr := batch.SeedEngineCtx(ctx, e, reads,
		batch.Options{Workers: workers, Grain: grain, Metrics: reg, Trace: tw, Progress: tr})
	tr.Finish()
	res := r.(*core.Result)

	if !errors.Is(runErr, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", runErr)
	}
	if done <= 0 || done > workers*grain {
		t.Fatalf("done = %d, want a partial prefix of at most one shard per worker (%d reads)", done, workers*grain)
	}
	if len(res.Reads) != done {
		t.Fatalf("result covers %d reads, progress says %d", len(res.Reads), done)
	}

	// The partial prefix must be bit-identical to a sequential run over
	// the same reads.
	want := acc.Clone().SeedReads(reads[:done])
	if !reflect.DeepEqual(res.Reads, want.Reads) {
		t.Fatal("partial SMEM prefix differs from sequential run over the same prefix")
	}
	if res.Cycles != want.Cycles || res.Stats != want.Stats {
		t.Fatalf("partial model state differs: cycles %d vs %d", res.Cycles, want.Cycles)
	}

	// Partial telemetry stays well-formed: metrics serialize, spans
	// validate, and the tracker agrees with the runner.
	if _, err := reg.MarshalJSON(); err != nil {
		t.Fatalf("partial metrics registry does not serialize: %v", err)
	}
	if err := trace.Validate(tw.Spans()); err != nil {
		t.Fatalf("partial trace invalid: %v", err)
	}
	if s := tr.Snapshot(); s.ReadsDone != int64(done) {
		t.Fatalf("tracker reads_done %d, runner done %d", s.ReadsDone, done)
	}
}

// TestSeedCtxCompleteMatchesPlain checks the zero-cost claim of the ctx
// variant: an uncancelled SeedEngineCtx returns the same Result as
// SeedEngine.
func TestSeedCtxCompleteMatchesPlain(t *testing.T) {
	ref, reads := testWorkload(t, 1<<15, 100)
	acc, err := core.New(ref, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	e := engine.CASA(acc)
	want := batch.SeedEngine(e, reads, batch.Options{Workers: 4}).(*core.Result)
	got, done, runErr := batch.SeedEngineCtx(context.Background(), e, reads, batch.Options{Workers: 4})
	if runErr != nil || done != len(reads) {
		t.Fatalf("done=%d err=%v", done, runErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("SeedEngineCtx result differs from SeedEngine")
	}
}
