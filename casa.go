// Package casa is the public API of the CASA reproduction: a CAM-based
// SMEM seeding accelerator for genome alignment (Huang et al., MICRO
// 2023), implemented as a behavioural + cycle-approximate architectural
// simulator in pure Go. Through this one import a program builds the
// accelerator over a reference, seeds reads on it sequentially or on a
// worker pool, chains the resulting anchors, and generates synthetic
// genomes and reads to run it on.
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
// The exported names are aliases into the implementation packages. The
// baselines the paper compares against (BWA-MEM2 software seeding, ERT,
// GenAx), SeedEx extension and the end-to-end pipeline are run through
// the commands: casa-smem -engine, casa-align and casa-experiments. See
// DESIGN.md for the architecture and EXPERIMENTS.md for the paper
// reproduction results.
package casa

import (
	"casa/internal/batch"
	"casa/internal/chain"
	"casa/internal/core"
	"casa/internal/dna"
	"casa/internal/engine"
	"casa/internal/readsim"
	"casa/internal/smem"
)

// DNA primitives.
type (
	// Base is a 2-bit nucleotide (A=0, C=1, G=2, T=3).
	Base = dna.Base
	// Sequence is an unpacked DNA sequence.
	Sequence = dna.Sequence
)

// SMEM model.
type (
	// Match is an exact match interval on a read with its hit count.
	Match = smem.Match
)

// CASA accelerator (the paper's contribution).
type (
	// Config holds CASA's architectural parameters.
	Config = core.Config
	// Accelerator is a full CASA instance over a partitioned reference.
	Accelerator = core.Accelerator
	// Result is the outcome of a seeding run (SMEMs, time, power).
	Result = core.Result
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

// CASAEngine wraps an already-built CASA accelerator as a seeding engine
// (e.g. one loaded from a prebuilt index); see DESIGN.md, "Engine
// registry".
func CASAEngine(acc *Accelerator) engine.Engine { return engine.CASA(acc) }

// RunEngine seeds reads on a worker pool of clones of e and returns a
// result bit-identical to a sequential run at any worker count.
func RunEngine(e engine.Engine, reads []Sequence, o BatchOptions) engine.Result {
	return batch.SeedEngine(e, reads, o)
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

// Sequences extracts the base sequences of simulated reads.
func Sequences(reads []Read) []Sequence { return readsim.Sequences(reads) }
