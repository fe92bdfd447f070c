package batch

import (
	"context"
	"fmt"

	"casa/internal/dna"
	"casa/internal/engine"
	"casa/internal/metrics"
	"casa/internal/trace"
)

// clonePool returns workers engine instances for the resolved pool size:
// slot 0 is the original engine, the rest are clones.
func clonePool[E any](original E, workers int, clone func(E) E) []E {
	engines := make([]E, workers)
	engines[0] = original
	for w := 1; w < workers; w++ {
		engines[w] = clone(original)
	}
	return engines
}

// workerRegistries returns one private registry per worker when o.Metrics
// is set (so workers publish without contending), else nil.
func workerRegistries(o Options) []*metrics.Registry {
	if o.Metrics == nil {
		return nil
	}
	regs := make([]*metrics.Registry, o.WorkerCount())
	for i := range regs {
		regs[i] = metrics.New()
	}
	return regs
}

// mergeRegistries folds the per-worker registries into o.Metrics in
// worker order. Activity metrics are additive integer counters, so any
// merge order yields the sequential run's totals; worker order keeps the
// operation deterministic anyway.
func mergeRegistries(o Options, regs []*metrics.Registry) {
	for _, r := range regs {
		o.Metrics.Merge(r)
	}
}

// withEngine resolves the observability label for a seeding entry point:
// the caller's Options.Engine if set, else the engine's own name.
func withEngine(o Options, def string) Options {
	if o.Engine == "" {
		o.Engine = def
	}
	return o
}

// traceBuffers returns one span buffer per worker, labelled with the
// run's engine name. With tracing off (o.Trace nil) every buffer is the
// nil no-op sink, so callers index unconditionally.
func traceBuffers(o Options) []*trace.Buffer {
	bufs := make([]*trace.Buffer, o.WorkerCount())
	for i := range bufs {
		bufs[i] = o.Trace.NewBuffer(o.Engine)
	}
	return bufs
}

// Seed runs any registered engine over reads on the worker pool and
// returns its Result asserted to the engine's concrete result type, e.g.
// batch.Seed[*core.Result](engine.CASA(acc), reads, o). The Result is
// bit-identical to a sequential run of the same engine at any worker
// count. See SeedEngineCtx for the full contract.
func Seed[R any](e engine.Engine, reads []dna.Sequence, o Options) R {
	res, _, _ := SeedCtx[R](context.Background(), e, reads, o)
	return res
}

// SeedCtx is Seed with cooperative cancellation; see SeedEngineCtx.
func SeedCtx[R any](ctx context.Context, e engine.Engine, reads []dna.Sequence, o Options) (R, int, error) {
	res, done, err := SeedEngineCtx(ctx, e, reads, o)
	typed, ok := res.(R)
	if !ok {
		var zero R
		panic(fmt.Sprintf("batch: engine %q reduces to %T, not %T", e.Name(), res, zero))
	}
	return typed, done, err
}

// SeedEngine is SeedEngineCtx without cancellation, for callers that
// don't need the concrete result type.
func SeedEngine(e engine.Engine, reads []dna.Sequence, o Options) engine.Result {
	res, _, _ := SeedEngineCtx(context.Background(), e, reads, o)
	return res
}

// SeedEngineCtx seeds reads on a pool of engine clones — slot 0 is e
// itself — and reduces the shard activities on e into one Result,
// bit-identical to a sequential run: parallelism changes host wall-clock
// only, never the modelled hardware. Per shard, the worker's activity
// publishes into a private registry (merged into o.Metrics in worker
// order after the drain), spans land in the worker's trace buffer, and
// engines with a cycle model attribute shard cycles to the worker's
// progress cell. Every counter lives in the shard activities, so
// repeated calls on one engine publish the same registry.
//
// Cancelling ctx stops handing out new shards, drains the in-flight
// ones, and reduces exactly the completed prefix: the Result covers the
// first n reads (n is the second return value) with metrics, trace and
// progress consistent with that prefix, and the error is ctx.Err(). A
// run that completes returns n == len(reads) and a nil error.
func SeedEngineCtx(ctx context.Context, e engine.Engine, reads []dna.Sequence, o Options) (engine.Result, int, error) {
	o = withEngine(o, e.Name())
	engines := clonePool(e, o.WorkerCount(), engine.Engine.Clone)
	regs := workerRegistries(o)
	bufs := traceBuffers(o)
	cycles, _ := e.(engine.CycleCoster)
	acts, done, err := RunCtx(ctx, len(reads), o, func(w, lo, hi int) engine.Activity {
		act := engines[w].SeedTrace(reads[lo:hi], bufs[w], o.ReadBase+lo)
		if regs != nil {
			act.PublishMetrics(regs[w])
		}
		if o.Progress != nil && cycles != nil {
			o.Progress.AddCycles(w, cycles.ActivityCycles(act))
		}
		return act
	})
	reduceStart := o.wallNow()
	res := e.Reduce(reads[:done], acts)
	o.wallPhase("reduce", reduceStart)
	if o.Metrics != nil {
		mergeStart := o.wallNow()
		mergeRegistries(o, regs)
		res.PublishModelMetrics(o.Metrics)
		o.wallPhase("merge-metrics", mergeStart)
	}
	return res, done, err
}
