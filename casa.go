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

	"casa/internal/align"
	"casa/internal/batch"
	"casa/internal/chain"
	"casa/internal/core"
	"casa/internal/cpu"
	"casa/internal/dna"
	"casa/internal/engine"
	"casa/internal/ert"
	"casa/internal/genax"
	"casa/internal/gencache"
	"casa/internal/metrics"
	"casa/internal/pairing"
	"casa/internal/pipeline"
	"casa/internal/progress"
	"casa/internal/readsim"
	"casa/internal/seedex"
	"casa/internal/smem"
	"casa/internal/trace"
	"casa/internal/vcall"
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
	// Finder computes SMEMs of reads against a fixed reference.
	Finder = smem.Finder
)

// NewBruteForceFinder returns the definition-based golden SMEM finder.
func NewBruteForceFinder(ref Sequence) Finder { return smem.BruteForce{Ref: ref} }

// NewFMIndexFinder returns the BWA-MEM2-style bidirectional SMEM finder.
func NewFMIndexFinder(ref Sequence) Finder { return smem.NewBidirectional(ref) }

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
	// Stats is the per-partition activity breakdown.
	Stats = core.PartStats
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
	// SeedingEngine is the uniform engine interface every seeding model
	// implements (Clone-per-worker, deterministic Reduce); see
	// internal/engine and DESIGN.md, "Engine registry".
	SeedingEngine = engine.Engine
	// EngineOptions is the engine-agnostic construction knob set
	// understood by every registered factory.
	EngineOptions = engine.Options
	// EngineResult is the opaque outcome of a RunEngine call; pass it
	// back to the engine's SMEMs (or assert its concrete type).
	EngineResult = engine.Result
	// EngineFactory describes one registered engine (name, aliases,
	// description, constructor).
	EngineFactory = engine.Factory
)

// DefaultBatchOptions returns the default pool configuration: one worker
// per CPU, automatic shard grain.
func DefaultBatchOptions() BatchOptions { return batch.DefaultOptions() }

// NewEngine constructs a registered engine ("casa", "ert", "genax",
// "gencache", "cpu", "fmindex", "brute" or any alias) over ref.
func NewEngine(name string, ref Sequence, opt EngineOptions) (SeedingEngine, error) {
	return engine.New(name, ref, opt)
}

// ListEngines returns every registered engine factory in registration
// order.
func ListEngines() []EngineFactory { return engine.List() }

// CASAEngine wraps an already-built CASA accelerator as a SeedingEngine
// (e.g. one loaded from a prebuilt index).
func CASAEngine(acc *Accelerator) SeedingEngine { return engine.CASA(acc) }

// RunEngine seeds reads on a worker pool of clones of e and returns a
// result bit-identical to a sequential run at any worker count.
func RunEngine(e SeedingEngine, reads []Sequence, o BatchOptions) EngineResult {
	return batch.SeedEngine(e, reads, o)
}

// RunEngineCtx is RunEngine with cooperative cancellation: when ctx is
// cancelled mid-run the pool stops handing out new shards, drains the
// in-flight ones, and returns the result of the completed contiguous
// read prefix (its length is the second return value) together with
// ctx.Err(). Metrics, trace spans and progress cells stay consistent
// with that prefix.
func RunEngineCtx(ctx context.Context, e SeedingEngine, reads []Sequence, o BatchOptions) (EngineResult, int, error) {
	return batch.SeedEngineCtx(ctx, e, reads, o)
}

// Observability: engines publish activity counters and model gauges into
// a MetricsRegistry under names of the form engine/stage/counter; see
// docs/OBSERVABILITY.md. Set BatchOptions.Metrics to collect a batch
// run's metrics — the merged registry is byte-identical for any worker
// count.
type (
	// MetricsRegistry is an in-process counter/gauge/histogram registry.
	MetricsRegistry = metrics.Registry
)

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return metrics.New() }

// Live progress: a run with BatchOptions.Progress set updates lock-free
// per-worker cells as shards drain; Snapshot aggregates them on demand
// into a casa-progress/v1 document (reads done, throughput, ETA); see
// docs/OBSERVABILITY.md, "Live telemetry".
type (
	// ProgressTracker holds a run's live per-worker progress cells.
	ProgressTracker = progress.Tracker
	// ProgressSnapshot is one aggregated casa-progress/v1 snapshot.
	ProgressSnapshot = progress.Snapshot
)

// NewProgressTracker returns a tracker for a run of workers workers over
// totalReads reads (0 = unknown; grow it later with AddTotal).
func NewProgressTracker(runID, engine string, workers int, totalReads int64) *ProgressTracker {
	return progress.New(runID, engine, workers, totalReads)
}

// NewRunID returns a fresh 16-hex-character run identifier.
func NewRunID() string { return progress.NewRunID() }

// Tracing: engines emit per-read, per-stage spans in the modelled cycle
// domain into a Trace session; see docs/OBSERVABILITY.md. Set
// BatchOptions.Trace to record a batch run — the merged span stream is
// byte-identical for any worker count.
type (
	// Trace is a cycle-domain span recording session.
	Trace = trace.Trace
	// TraceSpan is one recorded cycle-domain event.
	TraceSpan = trace.Span
	// TracePolicy selects which reads a Trace keeps (all, head:N,
	// slowest:N).
	TracePolicy = trace.Policy
)

// NewTrace returns a trace session with the given sampling policy and
// ring capacity in spans (<= 0 picks the default).
func NewTrace(policy TracePolicy, capacity int) *Trace { return trace.New(policy, capacity) }

// ParseTracePolicy parses "all", "head:N" or "slowest:N".
func ParseTracePolicy(s string) (TracePolicy, error) { return trace.ParsePolicy(s) }

// WriteTraceFile writes a merged span stream (Trace.Spans) to path:
// Chrome trace_event JSON (Perfetto-loadable), or JSONL when the path
// ends in .jsonl.
func WriteTraceFile(path string, spans []TraceSpan) error { return trace.WriteFile(path, spans) }

// FindSMEMsBatch runs any Finder over a read batch on the worker pool,
// returning per-read SMEM sets in input order. newFinder must return an
// independent finder per worker (e.g. a Clone sharing the index).
func FindSMEMsBatch(reads []Sequence, minLen int, o BatchOptions, newFinder func(worker int) Finder) [][]Match {
	return batch.FindSMEMs(reads, minLen, o, newFinder)
}

// Baselines.
type (
	// ERTConfig configures the ERT baseline accelerator.
	ERTConfig = ert.AccelConfig
	// ERTAccelerator is the Enumerated-Radix-Trees baseline.
	ERTAccelerator = ert.Accelerator
	// GenAxConfig configures the GenAx baseline.
	GenAxConfig = genax.Config
	// GenAxAccelerator is the seed & position table baseline.
	GenAxAccelerator = genax.Accelerator
	// CPUConfig configures the software BWA-MEM2 baseline model.
	CPUConfig = cpu.Config
	// CPUSeeder is the software baseline.
	CPUSeeder = cpu.Seeder
)

// DefaultERTConfig returns the paper's ASIC-ERT evaluation setup.
func DefaultERTConfig() ERTConfig { return ert.DefaultAccelConfig() }

// NewERT builds the ERT baseline over ref.
func NewERT(ref Sequence, cfg ERTConfig) (*ERTAccelerator, error) {
	return ert.NewAccelerator(ref, cfg)
}

// DefaultGenAxConfig returns the paper's GenAx evaluation setup.
func DefaultGenAxConfig() GenAxConfig { return genax.DefaultConfig() }

// NewGenAx builds the GenAx baseline over ref.
func NewGenAx(ref Sequence, cfg GenAxConfig) (*GenAxAccelerator, error) {
	return genax.New(ref, cfg)
}

// GenCache baseline (GenAx + fast-seeding bypass + cached tables).
type (
	// GenCacheConfig configures the GenCache baseline.
	GenCacheConfig = gencache.Config
	// GenCacheAccelerator is the GenCache model.
	GenCacheAccelerator = gencache.Accelerator
)

// DefaultGenCacheConfig returns the GenCache setup at the paper's scale.
func DefaultGenCacheConfig() GenCacheConfig { return gencache.DefaultConfig() }

// NewGenCache builds the GenCache baseline over ref.
func NewGenCache(ref Sequence, cfg GenCacheConfig) (*GenCacheAccelerator, error) {
	return gencache.New(ref, cfg)
}

// B12T and B32T return the two CPU platforms of Table 2.
func B12T() CPUConfig { return cpu.B12T() }

// B32T returns the 32-thread Xeon configuration.
func B32T() CPUConfig { return cpu.B32T() }

// NewCPUSeeder builds the software baseline over ref.
func NewCPUSeeder(ref Sequence, cfg CPUConfig) (*CPUSeeder, error) { return cpu.New(ref, cfg) }

// Seed extension and end-to-end pipeline.
type (
	// SeedExConfig configures the SeedEx machines.
	SeedExConfig = seedex.Config
	// SeedExMachine extends seeds with banded SW + edit machines.
	SeedExMachine = seedex.Machine
	// Seed is one positioned extension candidate.
	Seed = seedex.Seed
	// Alignment is a chosen read alignment.
	Alignment = seedex.Alignment
	// Cigar is a run-length encoded alignment description.
	Cigar = align.Cigar
	// PipelineConfig configures the end-to-end cost model.
	PipelineConfig = pipeline.Config
	// PipelineEngines bundles all engines for an end-to-end run.
	PipelineEngines = pipeline.Engines
	// Breakdown is one system's stacked end-to-end running time.
	Breakdown = pipeline.Breakdown
)

// DefaultSeedExConfig returns the paper's 5-machine SeedEx arrangement.
func DefaultSeedExConfig() SeedExConfig { return seedex.DefaultConfig() }

// NewSeedEx builds the SeedEx machine array over ref.
func NewSeedEx(ref Sequence, cfg SeedExConfig) (*SeedExMachine, error) {
	return seedex.New(ref, cfg)
}

// DefaultPipelineConfig returns the end-to-end model defaults.
func DefaultPipelineConfig() PipelineConfig { return pipeline.DefaultConfig() }

// BuildPipeline constructs every engine over one reference for an
// end-to-end comparison (Fig 14).
func BuildPipeline(ref Sequence, casaCfg Config, ertCfg ERTConfig, genaxCfg GenAxConfig,
	cpuCfg CPUConfig, sxCfg SeedExConfig) (*PipelineEngines, error) {
	return pipeline.BuildEngines(ref, casaCfg, ertCfg, genaxCfg, cpuCfg, sxCfg)
}

// RunPipeline executes the end-to-end comparison on a read batch.
func RunPipeline(e *PipelineEngines, reads []Sequence, cfg PipelineConfig) (*pipeline.Result, error) {
	return pipeline.Run(e, reads, cfg)
}

// RunPipelineTrace is RunPipeline with each system's stage waterfall
// (the paper's Fig 14 timelines) recorded into tr as system spans, in
// modelled-wall nanoseconds.
func RunPipelineTrace(e *PipelineEngines, reads []Sequence, cfg PipelineConfig, tr *Trace) (*pipeline.Result, error) {
	return pipeline.RunTrace(e, reads, cfg, tr)
}

// Seed chaining (long-read anchoring, extension preprocessing).
type (
	// Anchor is one exact match for chaining.
	Anchor = chain.Anchor
	// ChainOptions tunes the collinear chaining DP.
	ChainOptions = chain.Options
	// Chain is a scored collinear anchor chain.
	Chain = chain.Chain
)

// DefaultChainOptions returns chaining parameters for short and long reads.
func DefaultChainOptions() ChainOptions { return chain.DefaultOptions() }

// BestChain returns the maximum-scoring collinear chain over the anchors.
func BestChain(anchors []Anchor, opt ChainOptions) (Chain, error) {
	return chain.Best(anchors, opt)
}

// Paired-end resolution.
type (
	// Mate is one end's placement for pairing decisions.
	Mate = pairing.Mate
	// PairingOptions configures proper-pair classification and rescue.
	PairingOptions = pairing.Options
)

// DefaultPairingOptions matches common Illumina libraries.
func DefaultPairingOptions() PairingOptions { return pairing.DefaultOptions() }

// ProperPair reports FR-orientation propriety and the template length.
func ProperPair(a, b Mate, opt PairingOptions) (bool, int) { return pairing.Proper(a, b, opt) }

// RescueMate places an unaligned mate using its partner's position.
func RescueMate(ref Sequence, mateSeq Sequence, partner Mate, opt PairingOptions) (Mate, bool) {
	return pairing.Rescue(ref, mateSeq, partner, opt)
}

// Workload generation.
type (
	// GenomeConfig controls synthetic reference generation.
	GenomeConfig = readsim.GenomeConfig
	// ReadProfile controls the DWGSIM-like read simulator.
	ReadProfile = readsim.ReadProfile
	// Read is one simulated read with ground truth.
	Read = readsim.Read
	// PairProfile controls paired-end simulation.
	PairProfile = readsim.PairProfile
	// ReadPair is one simulated fragment's two mates.
	ReadPair = readsim.ReadPair
)

// DefaultGenome returns a mammalian-like genome configuration.
func DefaultGenome(length int, seed int64) GenomeConfig { return readsim.DefaultGenome(length, seed) }

// GenerateReference builds a synthetic genome.
func GenerateReference(cfg GenomeConfig) Sequence { return readsim.GenerateReference(cfg) }

// DefaultProfile returns the paper-like read profile (101 bp, ~80% exact).
func DefaultProfile(count int, seed int64) ReadProfile { return readsim.DefaultProfile(count, seed) }

// Simulate samples reads from ref.
func Simulate(ref Sequence, p ReadProfile) []Read { return readsim.Simulate(ref, p) }

// DefaultPairProfile returns an Illumina-like paired-end profile.
func DefaultPairProfile(count int, seed int64) PairProfile {
	return readsim.DefaultPairProfile(count, seed)
}

// SimulatePairs samples read pairs from ref.
func SimulatePairs(ref Sequence, p PairProfile) []ReadPair { return readsim.SimulatePairs(ref, p) }

// Sequences extracts the base sequences of simulated reads.
func Sequences(reads []Read) []Sequence { return readsim.Sequences(reads) }

// Variant calling (the pipeline endpoint the paper's §1 motivates).
type (
	// Variant is one planted or called SNP.
	Variant = readsim.Variant
	// Pileup accumulates per-position allele counts from alignments.
	Pileup = vcall.Pileup
	// CallConfig sets the SNP-calling thresholds.
	CallConfig = vcall.Config
	// VariantCall is one emitted SNP call.
	VariantCall = vcall.Call
)

// Donor derives a donor genome from ref with planted SNPs (the truth set
// a caller should recover).
func Donor(ref Sequence, rate float64, seed int64) (Sequence, []Variant) {
	return readsim.Donor(ref, rate, seed)
}

// NewPileup creates an empty pileup over ref.
func NewPileup(ref Sequence) *Pileup { return vcall.NewPileup(ref) }

// DefaultCallConfig returns calling thresholds for ~20-40x coverage.
func DefaultCallConfig() CallConfig { return vcall.DefaultConfig() }
