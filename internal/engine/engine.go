// Package engine defines the seeding-engine abstraction every harness in
// this repository runs against — the batch pool, the CLIs, the bench, the
// differential and determinism tests — plus a registry of named factories
// so a new engine becomes selectable, benchmarked and differential-tested
// by registering one Factory.
//
// The contract mirrors the Seed/Reduce/Clone split the concrete engines
// already share: Clone gives each pool worker an independent instance
// over shared read-only indexes, SeedTrace computes one shard's
// order-independent Activity, and Reduce — always called on the engine
// the pool was started with — folds the shard activities into the final
// Result, replaying any order-sensitive model state (ERT's reuse cache,
// GenCache's multi-bank cache) so the Result is bit-identical to a
// sequential run at any worker count.
package engine

import (
	"casa/internal/dna"
	"casa/internal/metrics"
	"casa/internal/smem"
	"casa/internal/trace"
)

// Activity is one shard's order-independent record of engine work: pure
// counters and per-read outputs, safe to compute concurrently and merge
// in any order. PublishMetrics folds the shard's counters into a
// registry (each pool worker publishes into a private registry; the pool
// merges them deterministically).
type Activity interface {
	PublishMetrics(reg *metrics.Registry)
}

// Result is a reduced run: per-read SMEM sets plus whatever hardware
// model outputs the engine computes. PublishModelMetrics records the
// model gauges (seconds, energy, cache rates, ...) once per run.
type Result interface {
	PublishModelMetrics(reg *metrics.Registry)
}

// Engine is one seeding engine instance bound to a reference. Engines
// are not goroutine-safe; concurrent use goes through Clone, one
// instance per worker.
type Engine interface {
	// Name returns the engine's registry name ("casa", "ert", ...); the
	// batch pool uses it as the default observability label.
	Name() string

	// Clone returns an independent instance sharing the read-only
	// indexes, with fresh counters and model state.
	Clone() Engine

	// SeedTrace seeds one shard of reads, emitting per-read spans into tb
	// (nil disables tracing) with read indices offset by base, and
	// returns the shard's Activity.
	SeedTrace(reads []dna.Sequence, tb *trace.Buffer, base int) Activity

	// Reduce folds shard activities — in shard order, covering exactly
	// reads — into the run's Result. reads is the full ordered batch the
	// activities describe; engines with order-sensitive model state (the
	// ERT reuse cache) replay it from reads, the rest ignore it.
	Reduce(reads []dna.Sequence, acts []Activity) Result

	// SMEMs returns the per-read forward-strand SMEM sets of one of this
	// engine's Results, in read order.
	SMEMs(res Result) [][]smem.Match
}

// Model carries an engine's simulated-hardware outputs for one Result:
// modelled seconds, controller cycles (0 when the engine's model has no
// cycle domain) and modelled reads/s.
type Model struct {
	Seconds   float64
	Cycles    int64
	ReadsPerS float64
}

// Modeler is implemented by engines with a hardware timing model;
// engines without one (the plain FM-index finder, the brute-force
// golden) omit it and benchmarks report host time only.
type Modeler interface {
	Model(res Result) Model
}

// CycleCoster is implemented by engines whose activities carry modelled
// controller cycles; the batch pool uses it to attribute cycles to live
// progress cells as shards complete.
type CycleCoster interface {
	ActivityCycles(act Activity) int64
}

// Seeds is one read's SMEM sets on both strands (Reverse is against the
// reverse-complemented read).
type Seeds struct {
	Forward []smem.Match
	Reverse []smem.Match
}

// ReadSeeder is the optional steady-state hot-path capability: seeding a
// single read into caller-owned buffers. SeedReadInto appends the read's
// SMEM sets into dst's slices (reslicing them to length zero first, so
// their backing arrays are reused across calls) and reports whether this
// instance supports the allocation-free path — false means dst is
// untouched and the caller must fall back to SeedTrace. For engines
// returning true, a warmed-up instance performs zero heap allocations per
// read; the allocation regression suite (TestSeedZeroAlloc) pins this for
// the casa, cpu and fmindex engines. Implementations may keep internal
// scratch on the instance, so the usual Clone-per-worker rule applies.
type ReadSeeder interface {
	SeedReadInto(dst *Seeds, read dna.Sequence) bool
}

// Positioner is implemented by engines that can drive alignment: both
// strands' SMEMs plus the reference positions behind a match. Only CASA
// models the hit-position path (the CAM rows are position-addressed);
// the baselines model SMEM search alone.
type Positioner interface {
	ReadSeeds(res Result) []Seeds
	HitPositions(strand dna.Sequence, m smem.Match, maxHits int) []int32
}

// Unwrapper exposes the concrete engine behind an adapter
// (*core.Accelerator, *ert.Accelerator, ...) for callers that need the
// full native API; Build is the typed front door.
type Unwrapper interface {
	Unwrap() any
}

// Options are the cross-engine construction knobs. Zero values mean the
// engine's defaults; knobs an engine has no counterpart for are ignored.
// Config overrides every knob with a full engine-specific configuration.
type Options struct {
	// MinSMEM is the minimum reported SMEM length (0 = the engines'
	// shared default, 19).
	MinSMEM int

	// Partition is the partition/segment size in bases for the
	// partitioned engines (casa, genax, gencache). 0 keeps the engine
	// default; CASA additionally shrinks the default down to fit small
	// references in one partition.
	Partition int

	// TableK is the seed-table k-mer width of the hash-table engines
	// (genax, gencache); 0 = default. Benchmarks and tests shrink it so
	// table memory scales with the test reference.
	TableK int

	// CacheBytes is the multi-bank seed-table cache capacity of the
	// caching engines (gencache); 0 = default.
	CacheBytes int64

	// Exact requests the golden-comparable configuration: the engine's
	// forward-strand SMEMs must equal the brute-force finder's by
	// definition. It forces a single partition (partition overlap
	// double-counts hits), disables output-changing shortcuts (CASA's
	// exact-match prepass, GenCache's fast-seeding bypass) and shrinks
	// pivot k-mers below MinSMEM where validation requires it. The
	// registry conformance and fuzz harnesses build every engine this
	// way.
	Exact bool

	// Shards is the shard count of the sharded composite engines
	// (sharded:<inner>); 0 = their default. The flat engines ignore it.
	Shards int

	// ShardOverlap is the inter-shard overlap in bases of the sharded
	// composite engines; it must be at least the longest read seeded, or
	// SMEMs spanning a shard boundary are lost. 0 = their default. The
	// flat engines ignore it.
	ShardOverlap int

	// Config, when non-nil, must hold the engine's native configuration
	// (core.Config for casa, ert.AccelConfig for ert, ...) and is used
	// verbatim; every other knob is ignored.
	Config any
}
