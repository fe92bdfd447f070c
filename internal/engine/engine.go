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
// Result, replaying any order-sensitive model state (ERT's reuse cache)
// so the Result is bit-identical to a sequential run at any worker count.
package engine

import (
	"errors"
	"fmt"

	"casa/internal/dna"
	"casa/internal/metrics"
	"casa/internal/smem"
	"casa/internal/trace"
)

// Activity is one shard's order-independent record of engine work: pure
// counters and per-read outputs, safe to compute concurrently and merge
// in any order, plus whatever else the engine's Reduce needs (ERT keeps
// the shard's reads for its reuse-cache replay), since neither Reduce nor
// Seeds gets the reads. PublishMetrics folds the shard's counters into a
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

	// Reduce folds shard activities, in shard order, into the run's
	// Result. Engines with order-sensitive model state (the ERT reuse
	// cache) replay it from the activities in that order.
	Reduce(acts []Activity) Result

	// SMEMs returns the per-read forward-strand SMEM sets of one of this
	// engine's Results, in read order.
	SMEMs(res Result) [][]smem.Match

	// Seeds returns the per-read seeds that shard activities, in shard
	// order, carry, without reducing them: a streaming caller uses each
	// batch's seeds as soon as it is seeded and still reduces the whole
	// run once. Forward equals what SMEMs reports after Reduce; Reverse is
	// set by StrandSeeders and nil otherwise.
	Seeds(acts []Activity) []Seeds
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

// StrandSeeder is implemented by engines whose Seeds fill Reverse as
// well as Forward: casa, whose positioning path seeds both strands, and
// cpu, ert and genax, whose activities already carry the
// reverse-complement search. A caller that needs both strands from
// another engine seeds the reverse complements itself.
type StrandSeeder interface {
	SeedsBothStrands()
}

// Positioner is implemented by engines that can drive alignment: both
// strands' SMEMs plus the reference positions behind a match. Only CASA
// models the hit-position path (the CAM rows are position-addressed);
// the baselines model SMEM search alone, and casa-align places their
// hits through Positions. HitPositions must be safe for concurrent use:
// casa-align's extension workers share one instance.
type Positioner interface {
	ReadSeeds(res Result) []Seeds
	HitPositions(strand dna.Sequence, m smem.Match, maxHits int) []int32
}

// ReadLimiter is implemented by engines whose answer is exact only for
// reads up to some length: the sharded composites, whose shards overlap
// by that many bases, and the partitioned casa and genax, whose
// partitions or segments overlap by one base less. CheckRead returns an
// error wrapping ErrReadTooLong for a read past the limit.
type ReadLimiter interface {
	CheckRead(read dna.Sequence) error
}

// ErrReadTooLong marks a read that an engine would seed with SMEMs
// missing (see ReadLimiter).
var ErrReadTooLong = errors.New("read too long")

// CheckReads checks reads against e's read limit, if it has one, and
// names the first read past it by its names entry. Callers run it on
// every batch before seeding, so a read the engine cannot seed exactly
// fails the run instead of losing SMEMs.
func CheckReads(e Engine, reads []dna.Sequence, names []string) error {
	rl, ok := e.(ReadLimiter)
	if !ok {
		return nil
	}
	for i, read := range reads {
		if err := rl.CheckRead(read); err != nil {
			return fmt.Errorf("read %q: %w", names[i], err)
		}
	}
	return nil
}

// checkCut refuses a read longer than limit, the longest read a
// partitioned engine's cuts keep whole (0 = no cut).
func checkCut(read dna.Sequence, limit int, cut string) error {
	if limit > 0 && len(read) > limit {
		return fmt.Errorf("%w: %d bases exceed the %d that a %s cut keeps whole", ErrReadTooLong, len(read), limit, cut)
	}
	return nil
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
	// partitioned engines (casa, genax). 0 keeps the engine default;
	// CASA additionally shrinks the default down to fit small references
	// in one partition.
	Partition int

	// TableK is the seed-table k-mer width of the hash-table engine
	// (genax); 0 = default. Benchmarks and tests shrink it so table
	// memory scales with the test reference.
	TableK int

	// Exact requests the golden-comparable configuration: the engine's
	// forward-strand SMEMs must equal the brute-force finder's by
	// definition. It forces a single partition (partition overlap
	// double-counts hits), disables output-changing shortcuts (CASA's
	// exact-match prepass) and shrinks pivot k-mers below MinSMEM where
	// validation requires it. The registry conformance and fuzz
	// harnesses build every engine this way.
	Exact bool

	// Shards is the shard count of the sharded composite engines
	// (sharded:<inner>); 0 = their default. The flat engines ignore it.
	Shards int

	// ShardOverlap is the inter-shard overlap in bases of the sharded
	// composite engines; it must be at least the longest read seeded, or
	// SMEMs spanning a shard boundary are lost, so CheckReads refuses
	// longer reads. 0 = their default. The flat engines ignore it.
	ShardOverlap int

	// Config, when non-nil, must hold the engine's native configuration
	// (core.Config for casa, ert.AccelConfig for ert, ...) and is used
	// verbatim; every other knob is ignored.
	Config any
}
