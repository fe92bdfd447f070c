// Package batch runs SMEM seeding over a worker pool: a read batch is
// split into contiguous shards, each worker owns its own engine instance
// (a cheap Clone sharing the immutable index state), and the per-shard
// results are merged back in input order regardless of completion order.
//
// Because every engine separates raw, additive activity (Seed) from the
// cycle/energy finalization (Reduce), the merged Result carries the same
// simulated cycles, stats, DRAM traffic and energy a sequential run
// reports — parallelism changes the host wall-clock, never the modelled
// hardware. The paper's §6 validation invariant ("CASA produces identical
// SMEMs to GenAx, 100% of BWA-MEM2") extends to worker counts: the
// determinism tests assert byte-identical output for workers = 1, 4, 16.
//
// Concurrency contract (see docs/MODEL.md for the full table): index
// structures built at construction time — CASA filter arrays and CAM
// images, FM-indexes, ERT trees, GenAx seed & position tables — are
// immutable after construction and safely shared across workers. Activity
// counters (PartStats, ert.Stats, genax.Stats, finder step counts) and
// the ERT reuse cache are per-instance mutable state: every worker must
// own a Clone. Order-sensitive models (the ERT reuse cache) are replayed
// sequentially during reduction.
package batch

import (
	"context"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"casa/internal/metrics"
	"casa/internal/progress"
	"casa/internal/trace"
)

// Options configures the worker pool.
type Options struct {
	// Workers is the number of worker goroutines (and engine instances).
	// Zero or negative means runtime.NumCPU().
	Workers int

	// Grain is the number of reads per shard. Zero or negative picks a
	// grain that gives each worker several shards (for load balancing)
	// while keeping shards large enough to amortize scheduling.
	Grain int

	// Metrics, when non-nil, receives the run's observability data: each
	// worker publishes its shard activity into a private registry, the
	// per-worker registries are merged in worker order after the pool
	// drains, and the finalized model gauges are layered on after Reduce.
	// Because activity metrics are additive integer counters, the merged
	// registry is byte-identical to the one a sequential run publishes,
	// for any worker count.
	Metrics *metrics.Registry

	// Trace, when non-nil, records cycle-domain spans: each worker emits
	// into a private trace.Buffer (created via Trace.NewBuffer, labelled
	// with Engine), keyed by global read index with read-local timestamps.
	// The merged span stream — and its exported bytes — is identical for
	// any worker count, the same discipline Metrics follows.
	Trace *trace.Trace

	// Wall, when non-nil, receives host wall-clock spans: one span per
	// claimed shard (proc trace.WallWorkerProc(worker), track Engine,
	// name trace.WallShardName carrying the shard index, global read
	// range and read count) plus spans for the sequential reduce/merge
	// phases on the trace.WallHostProc process. The overhead is one
	// time.Now pair per shard — far off the per-read hot path — and the
	// spans live in their own casa-walltrace/v1 domain: the modelled
	// cycle-domain Trace and the determinism contract are untouched.
	// casa-trace turns a capture into per-worker utilization and
	// shard-skew tables; see docs/OBSERVABILITY.md.
	Wall *trace.WallTrace

	// Engine labels this run's observability output: it becomes the trace
	// process name and the "engine" pprof goroutine label on the workers.
	// Empty means the Seed* entry point's default ("casa", "ert", ...).
	Engine string

	// ReadBase is the global index of reads[0]: trace spans, wall shard
	// names and progress are keyed by ReadBase + index-in-batch, so every
	// read of a run seeded in successive batches keeps a unique, stable
	// identity. Stream sets it per batch; zero for single-batch callers.
	ReadBase int

	// shardBase is the run-wide index of the first shard, so a Stream's
	// wall shard names count shards across its batches.
	shardBase int

	// Progress, when non-nil, receives live per-worker liveness as shards
	// drain: each completed shard bumps the worker's cell (reads done,
	// shards done, last global read index) with a handful of uncontended
	// atomic adds — the live counterpart of the post-run Metrics/Trace
	// snapshots, served by internal/obshttp's /v1/runs/{id} and its
	// event stream. The tracker must have at least WorkerCount() cells
	// (updates to missing cells are dropped).
	Progress *progress.Tracker
}

// DefaultOptions returns the default pool configuration: one worker per
// CPU, automatic grain.
func DefaultOptions() Options { return Options{} }

// WorkerCount resolves the effective worker count.
func (o Options) WorkerCount() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.NumCPU()
}

// shardsPerWorker is the load-balancing factor of the automatic grain:
// each worker gets about this many shards, so a straggler shard (e.g. a
// run of repeat-heavy reads) redistributes instead of serializing the
// tail.
const shardsPerWorker = 4

// grain resolves the effective shard size for n items.
func (o Options) grain(n int) int {
	if o.Grain > 0 {
		return o.Grain
	}
	g := (n + o.WorkerCount()*shardsPerWorker - 1) / (o.WorkerCount() * shardsPerWorker)
	if g < 1 {
		g = 1
	}
	return g
}

// Run splits n items into contiguous shards of Options.Grain items and
// executes fn for every shard on a pool of Options.Workers workers,
// returning the per-shard results in shard (input) order. fn receives the
// worker index (0 <= worker < WorkerCount) and the item range [lo, hi);
// calls with the same worker index never run concurrently, so fn may use
// per-worker state (an engine Clone) without locking. Shards are handed
// out dynamically: a worker that finishes early steals the next shard.
func Run[R any](n int, o Options, fn func(worker, lo, hi int) R) []R {
	results, _, _ := RunCtx(context.Background(), n, o, fn)
	return results
}

// RunCtx is Run with cooperative cancellation: once ctx is cancelled, no
// new shard is handed out, but every shard already claimed drains to
// completion — workers are never interrupted mid-shard, so the engine
// state, metrics and trace spans of completed shards stay consistent.
// Because shards are claimed in increasing index order, the completed
// set is always a contiguous prefix: RunCtx returns the per-shard
// results of that prefix, the number of items it covers, and ctx.Err()
// when the run was cut short (nil when it ran to the end).
func RunCtx[R any](ctx context.Context, n int, o Options, fn func(worker, lo, hi int) R) ([]R, int, error) {
	if n <= 0 {
		return nil, 0, ctx.Err()
	}
	grain := o.grain(n)
	numShards := (n + grain - 1) / grain
	workers := o.WorkerCount()
	if workers > numShards {
		workers = numShards
	}
	// runShard wraps one fn call in its wall span when profiling is on: a
	// time.Now pair per shard, never per read, so the hot path stays
	// allocation- and syscall-free with Wall unset.
	runShard := func(w, s, lo, hi int) R {
		if o.Wall == nil {
			return fn(w, lo, hi)
		}
		start := time.Now()
		r := fn(w, lo, hi)
		o.Wall.Record(trace.WallWorkerProc(w), o.wallTrack(),
			trace.WallShardName(o.shardBase+s, o.ReadBase+lo, o.ReadBase+hi), start, time.Since(start))
		return r
	}
	results := make([]R, numShards)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			o.labeled(w, func() {
				for {
					if ctx.Err() != nil {
						return
					}
					s := int(next.Add(1)) - 1
					if s >= numShards {
						return
					}
					lo, hi := s*grain, min(s*grain+grain, n)
					results[s] = runShard(w, s, lo, hi)
					o.shardDone(w, lo, hi)
				}
			})
		}(w)
	}
	wg.Wait()
	claimed := min(int(next.Load()), numShards)
	return results[:claimed], min(claimed*grain, n), ctx.Err()
}

// shardDone reports one completed shard [lo, hi) to the progress
// tracker, if any.
func (o Options) shardDone(worker, lo, hi int) {
	if o.Progress != nil {
		o.Progress.ShardDone(worker, hi-lo, o.ReadBase+hi-1)
	}
}

// wallTrack labels this run's wall spans: the engine name, or "batch"
// for raw Run callers that never set one.
func (o Options) wallTrack() string {
	if o.Engine != "" {
		return o.Engine
	}
	return "batch"
}

// wallPhase records one host-side sequential phase (reduce, merge) as a
// wall span on the WallHostProc process; no-op with profiling off.
func (o Options) wallPhase(name string, start time.Time) {
	if o.Wall == nil {
		return
	}
	o.Wall.Record(trace.WallHostProc, o.wallTrack(), name, start, time.Since(start))
}

// wallNow returns the phase start timestamp, skipping the clock read
// entirely when profiling is off.
func (o Options) wallNow() time.Time {
	if o.Wall == nil {
		return time.Time{}
	}
	return time.Now()
}

// labeled runs body with pprof goroutine labels identifying the engine
// and the worker index, so CPU and goroutine profiles of a batch run
// attribute samples to engines ("engine" label) and expose load imbalance
// across the pool ("worker" label).
func (o Options) labeled(worker int, body func()) {
	labels := pprof.Labels("engine", o.Engine, "worker", strconv.Itoa(worker))
	pprof.Do(context.Background(), labels, func(context.Context) { body() })
}
