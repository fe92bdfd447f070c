// Package casa is the public API of the CASA reproduction: a CAM-based
// SMEM seeding accelerator for genome alignment (Huang et al., MICRO
// 2023), implemented as a behavioural + cycle-approximate architectural
// simulator in pure Go, together with the baselines it is evaluated
// against (BWA-MEM2 software seeding, the ERT accelerator, GenAx) and the
// SeedEx extension stage for end-to-end alignment.
//
// Quick start:
//
//	ref := casa.GenerateReference(casa.DefaultGenome(1<<20, 1))
//	reads := casa.Sequences(casa.Simulate(ref, casa.DefaultProfile(1000, 2)))
//	acc, err := casa.New(ref, casa.DefaultConfig())
//	...
//	res := acc.SeedReads(reads)
//	fmt.Println(res.Throughput(), res.Reads[0].Forward)
//
// The exported names are aliases into the implementation packages so that
// the whole system remains usable through this single import; see
// DESIGN.md for the architecture and EXPERIMENTS.md for the paper
// reproduction results.
package casa

import (
	"context"

	"casa/internal/batch"
	"casa/internal/chain"
	"casa/internal/core"
	"casa/internal/cpu"
	"casa/internal/dna"
	"casa/internal/engine"
	"casa/internal/ert"
	"casa/internal/genax"
	"casa/internal/pairing"
	"casa/internal/pipeline"
	"casa/internal/progress"
	"casa/internal/readsim"
	"casa/internal/seedex"
	"casa/internal/smem"
)

// DNA primitives.
type (
	// Base is a 2-bit nucleotide (A=0, C=1, G=2, T=3).
	Base = dna.Base
	// Sequence is an unpacked DNA sequence.
	Sequence = dna.Sequence
)

// FromString parses an ASCII DNA string (ambiguous bases replaced
// deterministically).
func FromString(s string) Sequence { return dna.FromString(s) }

// SMEM model.
type (
	// Match is an exact match interval on a read with its hit count.
	Match = smem.Match
)

// NewBruteForceFinder returns the definition-based golden SMEM finder.
func NewBruteForceFinder(ref Sequence) smem.Finder { return smem.BruteForce{Ref: ref} }

// NewFMIndexFinder returns the BWA-MEM2-style bidirectional SMEM finder.
func NewFMIndexFinder(ref Sequence) smem.Finder { return smem.NewBidirectional(ref) }

// CASA accelerator (the paper's contribution).
type (
	// Config holds CASA's architectural parameters.
	Config = core.Config
	// Accelerator is a full CASA instance over a partitioned reference.
	Accelerator = core.Accelerator
	// Result is the outcome of a seeding run (SMEMs, time, power).
	Result = core.Result
	// ReadResult is the per-read SMEM output (both strands).
	ReadResult = core.ReadResult
)

// DefaultConfig returns the paper's CASA configuration (k=19, m=10,
// 40-base CAM entries, 20 groups, 10 computing CAMs, 55 MB on-chip).
func DefaultConfig() Config { return core.DefaultConfig() }

// New builds a CASA accelerator over ref.
func New(ref Sequence, cfg Config) (*Accelerator, error) { return core.New(ref, cfg) }

// Batch seeding: shard a read batch across a pool of worker-owned engine
// clones. Every engine shares its immutable index structures between
// clones and keeps activity counters per instance, so batch runs need no
// locking and reduce to results bit-identical to a sequential SeedReads
// call — parallelism changes host wall-clock, never the modelled
// hardware (see docs/MODEL.md, "Concurrency contract").
type (
	// BatchOptions configures the batch worker pool (worker count, shard
	// grain). The zero value uses one worker per host CPU.
	BatchOptions = batch.Options
)

// DefaultBatchOptions returns the default pool configuration: one worker
// per CPU, automatic shard grain.
func DefaultBatchOptions() BatchOptions { return batch.DefaultOptions() }

// CASAEngine wraps an already-built CASA accelerator as a seeding engine
// (e.g. one loaded from a prebuilt index); see DESIGN.md, "Engine
// registry".
func CASAEngine(acc *Accelerator) engine.Engine { return engine.CASA(acc) }

// RunEngine seeds reads on a worker pool of clones of e and returns a
// result bit-identical to a sequential run at any worker count.
func RunEngine(e engine.Engine, reads []Sequence, o BatchOptions) engine.Result {
	return batch.SeedEngine(e, reads, o)
}

// RunEngineCtx is RunEngine with cooperative cancellation: when ctx is
// cancelled mid-run the pool stops handing out new shards, drains the
// in-flight ones, and returns the result of the completed contiguous
// read prefix (its length is the second return value) together with
// ctx.Err(). Metrics, trace spans and progress cells stay consistent
// with that prefix.
func RunEngineCtx(ctx context.Context, e engine.Engine, reads []Sequence, o BatchOptions) (engine.Result, int, error) {
	return batch.SeedEngineCtx(ctx, e, reads, o)
}

// Live progress: a run with BatchOptions.Progress set updates lock-free
// per-worker cells as shards drain; Snapshot aggregates them on demand
// into a casa-progress/v1 document (reads done, throughput, ETA); see
// docs/OBSERVABILITY.md, "Live telemetry".
type (
	// ProgressSnapshot is one aggregated casa-progress/v1 snapshot.
	ProgressSnapshot = progress.Snapshot
)

// NewProgressTracker returns a tracker for a run of workers workers over
// totalReads reads (0 = unknown; grow it later with AddTotal).
func NewProgressTracker(runID, engine string, workers int, totalReads int64) *progress.Tracker {
	return progress.New(runID, engine, workers, totalReads)
}

// NewRunID returns a fresh 16-hex-character run identifier.
func NewRunID() string { return progress.NewRunID() }

// Baselines: the ERT and GenAx accelerators and the software BWA-MEM2
// model (B12T, B32T).

// DefaultERTConfig returns the paper's ASIC-ERT evaluation setup.
func DefaultERTConfig() ert.AccelConfig { return ert.DefaultAccelConfig() }

// NewERT builds the ERT baseline over ref.
func NewERT(ref Sequence, cfg ert.AccelConfig) (*ert.Accelerator, error) {
	return ert.NewAccelerator(ref, cfg)
}

// DefaultGenAxConfig returns the paper's GenAx evaluation setup.
func DefaultGenAxConfig() genax.Config { return genax.DefaultConfig() }

// NewGenAx builds the GenAx baseline over ref.
func NewGenAx(ref Sequence, cfg genax.Config) (*genax.Accelerator, error) {
	return genax.New(ref, cfg)
}

// B12T and B32T return the two CPU platforms of Table 2.
func B12T() cpu.Config { return cpu.B12T() }

// B32T returns the 32-thread Xeon configuration.
func B32T() cpu.Config { return cpu.B32T() }

// NewCPUSeeder builds the software baseline over ref.
func NewCPUSeeder(ref Sequence, cfg cpu.Config) (*cpu.Seeder, error) { return cpu.New(ref, cfg) }

// Seed extension and end-to-end pipeline.
type (
	// SeedExMachine extends seeds with banded SW + edit machines.
	SeedExMachine = seedex.Machine
	// Seed is one positioned extension candidate.
	Seed = seedex.Seed
	// Alignment is a chosen read alignment.
	Alignment = seedex.Alignment
)

// DefaultSeedExConfig returns the paper's 5-machine SeedEx arrangement.
func DefaultSeedExConfig() seedex.Config { return seedex.DefaultConfig() }

// NewSeedEx builds the SeedEx machine array over ref.
func NewSeedEx(ref Sequence, cfg seedex.Config) (*SeedExMachine, error) {
	return seedex.New(ref, cfg)
}

// DefaultPipelineConfig returns the end-to-end model defaults.
func DefaultPipelineConfig() pipeline.Config { return pipeline.DefaultConfig() }

// BuildPipeline constructs every engine over one reference for an
// end-to-end comparison (Fig 14).
func BuildPipeline(ref Sequence, casaCfg Config, ertCfg ert.AccelConfig, genaxCfg genax.Config,
	cpuCfg cpu.Config, sxCfg seedex.Config) (*pipeline.Engines, error) {
	return pipeline.BuildEngines(ref, casaCfg, ertCfg, genaxCfg, cpuCfg, sxCfg)
}

// RunPipeline executes the end-to-end comparison on a read batch.
func RunPipeline(e *pipeline.Engines, reads []Sequence, cfg pipeline.Config) (*pipeline.Result, error) {
	return pipeline.Run(e, reads, cfg)
}

// Seed chaining (long-read anchoring, extension preprocessing).
type (
	// Anchor is one exact match for chaining.
	Anchor = chain.Anchor
)

// DefaultChainOptions returns chaining parameters for short and long reads.
func DefaultChainOptions() chain.Options { return chain.DefaultOptions() }

// BestChain returns the maximum-scoring collinear chain over the anchors.
func BestChain(anchors []Anchor, opt chain.Options) (chain.Chain, error) {
	return chain.Best(anchors, opt)
}

// Paired-end resolution.
type (
	// Mate is one end's placement for pairing decisions.
	Mate = pairing.Mate
)

// DefaultPairingOptions matches common Illumina libraries.
func DefaultPairingOptions() pairing.Options { return pairing.DefaultOptions() }

// RescueMate places an unaligned mate using its partner's position.
func RescueMate(ref Sequence, mateSeq Sequence, partner Mate, opt pairing.Options) (Mate, bool) {
	return pairing.Rescue(ref, mateSeq, partner, opt)
}

// Workload generation.
type (
	// Read is one simulated read with ground truth.
	Read = readsim.Read
)

// DefaultGenome returns a mammalian-like genome configuration.
func DefaultGenome(length int, seed int64) readsim.GenomeConfig {
	return readsim.DefaultGenome(length, seed)
}

// GenerateReference builds a synthetic genome.
func GenerateReference(cfg readsim.GenomeConfig) Sequence { return readsim.GenerateReference(cfg) }

// DefaultProfile returns the paper-like read profile (101 bp, ~80% exact).
func DefaultProfile(count int, seed int64) readsim.ReadProfile {
	return readsim.DefaultProfile(count, seed)
}

// Simulate samples reads from ref.
func Simulate(ref Sequence, p readsim.ReadProfile) []Read { return readsim.Simulate(ref, p) }

// DefaultPairProfile returns an Illumina-like paired-end profile.
func DefaultPairProfile(count int, seed int64) readsim.PairProfile {
	return readsim.DefaultPairProfile(count, seed)
}

// SimulatePairs samples read pairs from ref.
func SimulatePairs(ref Sequence, p readsim.PairProfile) []readsim.ReadPair {
	return readsim.SimulatePairs(ref, p)
}

// Sequences extracts the base sequences of simulated reads.
func Sequences(reads []Read) []Sequence { return readsim.Sequences(reads) }
