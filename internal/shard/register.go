package shard

import (
	"casa/internal/dna"
	"casa/internal/engine"
)

// init registers one "sharded:<name>" composite per persisting engine
// already in the registry, plus one over the golden oracle, so the batch
// pool, benchmarks, conformance tests, fuzz harnesses and CLIs pick them
// up with zero per-engine switches. Sharding exists so each shard's index
// can be built or loaded where it lives; an engine that rebuilds from
// FASTA in one pass gains nothing from it. The sharded oracle lets the
// conformance suites check the merge alone, over inner engines exact by
// construction. The built-in engines register in
// package engine's own init, which Go runs before this one (engine is an
// import of this package).
func init() {
	for _, f := range engine.List() {
		if f.NewEmpty != nil || f.Golden {
			engine.Register(shardedFactory(f))
		}
	}
}

// shardedFactory derives the composite's factory from the inner
// engine's: golden-ness propagates (sharded:brute is still an oracle,
// and still too slow to benchmark), persistence is offered exactly when
// the inner engine persists.
func shardedFactory(inner engine.Factory) engine.Factory {
	f := engine.Factory{
		Name:        "sharded:" + inner.Name,
		Description: "sharded composite over " + inner.Name + " (overlapping reference shards, merged SMEMs)",
		Golden:      inner.Golden,
		New: func(ref dna.Sequence, opt engine.Options) (engine.Engine, error) {
			return newSharded(inner, ref, opt)
		},
	}
	for _, a := range inner.Aliases {
		f.Aliases = append(f.Aliases, "sharded:"+a)
	}
	if inner.NewEmpty != nil {
		f.NewEmpty = func(opt engine.Options) (engine.Engine, error) {
			return &Sharded{name: "sharded:" + inner.Name, factory: inner, opt: opt}, nil
		}
	}
	return f
}
