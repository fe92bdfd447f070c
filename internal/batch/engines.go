package batch

import (
	"context"
	"io"

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

// SeedEngine is SeedEngineCtx without cancellation. Callers that need
// the engine's concrete result type assert it (res.(*core.Result)).
func SeedEngine(e engine.Engine, reads []dna.Sequence, o Options) engine.Result {
	res, _, _ := SeedEngineCtx(context.Background(), e, reads, o)
	return res
}

// SeedEngineCtx seeds reads on a pool of engine clones — slot 0 is e
// itself — and reduces the shard activities on e into one Result,
// bit-identical to a sequential run: parallelism changes host wall-clock
// only, never the modelled hardware. It is the one-batch Stream; see
// there for where metrics, spans and progress go.
//
// Cancelling ctx stops handing out new shards, drains the in-flight
// ones, and reduces exactly the completed prefix: the Result covers the
// first n reads (n is the second return value) with metrics, trace and
// progress consistent with that prefix, and the error is ctx.Err(). A
// run that completes returns n == len(reads) and a nil error.
func SeedEngineCtx(ctx context.Context, e engine.Engine, reads []dna.Sequence, o Options) (engine.Result, int, error) {
	s := NewSeeder(e, o)
	_, _, _, err := s.seed(ctx, reads)
	res, n := s.Reduce()
	return res, n, err
}

// Batch is one seeded batch of a Stream, handed to its consumer in input
// order.
type Batch struct {
	// Base is the run-wide index of Reads[0].
	Base int
	// Reads are the batch's seeded reads: the whole batch, or its
	// completed prefix when the run was cancelled mid-batch.
	Reads []dna.Sequence
	// Seeds are the per-read seeds of Reads (engine.Engine.Seeds).
	Seeds []engine.Seeds
}

// Stream seeds the read batches next produces, one after another, on one
// pool of engine clones — slot 0 is e itself — and hands each batch's
// seeds to emit (which may be nil) in input order as soon as the batch
// is seeded. next returns io.EOF after the last batch. It is a Seeder
// driven to the end of its input.
//
// The pool lives for the whole run: per shard, the worker's activity
// publishes into a private registry, spans land in the worker's trace
// buffer keyed by run-wide read index, and engines with a cycle model
// attribute shard cycles to the worker's progress cell. After the last
// batch the registries merge into o.Metrics in worker order and the
// run's activities reduce on e once, so the Result, every counter and
// model gauge and the trace are those of one batch holding all the
// reads, whatever the batch sizes. Every counter lives in the shard
// activities, so repeated runs on one engine publish the same registry.
//
// The run stops at the first error of next or emit, or when ctx is
// cancelled: the in-flight batch drains its claimed shards and its
// completed prefix is still emitted. The Result covers the first n
// reads (n is the second return value) and the error is the one that
// stopped the run — ctx.Err() on cancellation, nil at io.EOF.
func Stream(ctx context.Context, e engine.Engine, next func() ([]dna.Sequence, error), emit func(Batch) error, o Options) (engine.Result, int, error) {
	s := NewSeeder(e, o)
	var err error
	for err == nil {
		if err = ctx.Err(); err != nil {
			break
		}
		reads, nerr := next()
		if nerr != nil {
			if nerr != io.EOF {
				err = nerr
			}
			break
		}
		base, bacts, n, serr := s.seed(ctx, reads)
		err = serr
		if emit != nil && n > 0 {
			if eerr := emit(Batch{Base: base, Reads: reads[:n], Seeds: e.Seeds(bacts)}); err == nil {
				err = eerr
			}
		}
	}
	res, done := s.Reduce()
	return res, done, err
}

// Seeder seeds read batches one after another on one pool of engine
// clones and reduces them once, for callers that drive the batches
// themselves: Stream's pool, with the same per-shard metrics, spans,
// progress and wall spans (see Stream). casa-align cross-checks each
// seeded batch against a -verify engine on a second Seeder, so the
// verify engine's model gauges cover the run, not its last batch. It
// keeps every batch's shard activities until Reduce, but no reads: each
// activity carries what its engine's Reduce needs.
type Seeder struct {
	e       engine.Engine
	o, bo   Options // bo carries the next batch's ReadBase and shardBase
	engines []engine.Engine
	regs    []*metrics.Registry
	bufs    []*trace.Buffer
	cycles  engine.CycleCoster
	acts    []engine.Activity
	done    int
}

// NewSeeder returns a Seeder over a pool of o.WorkerCount() engines:
// slot 0 is e itself, the rest its clones.
func NewSeeder(e engine.Engine, o Options) *Seeder {
	o = withEngine(o, e.Name())
	s := &Seeder{
		e: e, o: o, bo: o,
		engines: clonePool(e, o.WorkerCount(), engine.Engine.Clone),
		regs:    workerRegistries(o),
		bufs:    traceBuffers(o),
	}
	s.cycles, _ = e.(engine.CycleCoster)
	return s
}

// Seed seeds the next batch and returns it with its seeds. On
// cancellation the batch is the completed prefix and the error is
// ctx.Err().
func (s *Seeder) Seed(ctx context.Context, reads []dna.Sequence) (Batch, error) {
	base, bacts, n, err := s.seed(ctx, reads)
	return Batch{Base: base, Reads: reads[:n], Seeds: s.e.Seeds(bacts)}, err
}

// seed runs one batch on the pool: it returns the batch's run-wide base,
// its shard activities, the completed read count and ctx.Err() when
// cancelled.
func (s *Seeder) seed(ctx context.Context, reads []dna.Sequence) (int, []engine.Activity, int, error) {
	base := s.o.ReadBase + s.done
	s.bo.ReadBase = base
	bacts, n, err := RunCtx(ctx, len(reads), s.bo, func(w, lo, hi int) engine.Activity {
		act := s.engines[w].SeedTrace(reads[lo:hi], s.bufs[w], base+lo)
		if s.regs != nil {
			act.PublishMetrics(s.regs[w])
		}
		if s.o.Progress != nil && s.cycles != nil {
			s.o.Progress.AddCycles(w, s.cycles.ActivityCycles(act))
		}
		return act
	})
	s.bo.shardBase += len(bacts)
	s.acts = append(s.acts, bacts...)
	s.done += n
	return base, bacts, n, err
}

// Reduce reduces every read seeded so far on the engine once, merges the
// workers' registries into o.Metrics and publishes the model gauges, and
// returns the Result with the number of reads it covers. Call it once,
// after the last batch.
func (s *Seeder) Reduce() (engine.Result, int) {
	reduceStart := s.o.wallNow()
	res := s.e.Reduce(s.acts)
	s.o.wallPhase("reduce", reduceStart)
	if s.o.Metrics != nil {
		mergeStart := s.o.wallNow()
		mergeRegistries(s.o, s.regs)
		res.PublishModelMetrics(s.o.Metrics)
		s.o.wallPhase("merge-metrics", mergeStart)
	}
	return res, s.done
}
