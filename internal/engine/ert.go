package engine

import (
	"fmt"

	"casa/internal/dna"
	"casa/internal/ert"
	"casa/internal/smem"
	"casa/internal/trace"
)

// ertEngine adapts the ASIC-ERT baseline accelerator.
type ertEngine struct{ a *ert.Accelerator }

// ERT wraps an already-built ERT accelerator as an Engine.
func ERT(a *ert.Accelerator) Engine { return ertEngine{a} }

func (e ertEngine) Name() string  { return "ert" }
func (e ertEngine) Clone() Engine { return ertEngine{e.a.Clone()} }

func (e ertEngine) SeedTrace(reads []dna.Sequence, tb *trace.Buffer, base int) Activity {
	return e.a.SeedTrace(reads, tb, base)
}

// Reduce replays the order-sensitive k-mer reuse cache over the reads
// the activities carry, in activity order, so the Result matches a
// sequential run.
func (e ertEngine) Reduce(acts []Activity) Result {
	return e.a.Reduce(typedActs[*ert.Activity](acts)...)
}

func (e ertEngine) Seeds(acts []Activity) []Seeds {
	return activitySeeds(acts, func(a *ert.Activity) ([][]smem.Match, [][]smem.Match) { return a.Reads, a.Rev })
}

func (e ertEngine) SeedsBothStrands() {}

func (e ertEngine) SMEMs(res Result) [][]smem.Match {
	return res.(*ert.Result).Reads
}

func (e ertEngine) Model(res Result) Model {
	r := res.(*ert.Result)
	return Model{Seconds: r.Seconds, ReadsPerS: r.Throughput}
}

func (e ertEngine) Unwrap() any { return e.a }

func ertFactory() Factory {
	return Factory{
		Name:        "ert",
		Description: "ASIC-ERT baseline: enumerated-radix-tree walker with a k-mer reuse cache",
		New: func(ref dna.Sequence, opt Options) (Engine, error) {
			cfg := ert.DefaultAccelConfig()
			switch c := opt.Config.(type) {
			case nil:
				if opt.MinSMEM > 0 {
					cfg.Index.MinSMEM = opt.MinSMEM
				}
				if opt.Exact && cfg.Index.K > cfg.Index.MinSMEM {
					// The tree k-mer may not exceed the reporting floor.
					cfg.Index.K = cfg.Index.MinSMEM
				}
			case ert.AccelConfig:
				cfg = c
			default:
				return nil, fmt.Errorf("engine: ert: Config is %T, want ert.AccelConfig", opt.Config)
			}
			a, err := ert.NewAccelerator(ref, cfg)
			if err != nil {
				return nil, err
			}
			return ertEngine{a}, nil
		},
	}
}
