package engine

import (
	"fmt"

	"casa/internal/dna"
	"casa/internal/genax"
	"casa/internal/smem"
	"casa/internal/trace"
)

// genaxEngine adapts the GenAx baseline accelerator.
type genaxEngine struct{ a *genax.Accelerator }

// GenAx wraps an already-built GenAx accelerator as an Engine.
func GenAx(a *genax.Accelerator) Engine { return genaxEngine{a} }

func (e genaxEngine) Name() string  { return "genax" }
func (e genaxEngine) Clone() Engine { return genaxEngine{e.a.Clone()} }

func (e genaxEngine) SeedTrace(reads []dna.Sequence, tb *trace.Buffer, base int) Activity {
	return e.a.SeedTrace(reads, tb, base)
}

func (e genaxEngine) Reduce(acts []Activity) Result {
	return e.a.Reduce(typedActs[*genax.Activity](acts)...)
}

func (e genaxEngine) Seeds(acts []Activity) []Seeds {
	return activitySeeds(acts, func(a *genax.Activity) ([][]smem.Match, [][]smem.Match) { return a.Reads, a.Rev })
}

func (e genaxEngine) SeedsBothStrands() {}

func (e genaxEngine) SMEMs(res Result) [][]smem.Match {
	return res.(*genax.Result).Reads
}

func (e genaxEngine) Model(res Result) Model {
	r := res.(*genax.Result)
	return Model{Seconds: r.Seconds, ReadsPerS: r.Throughput}
}

// CheckRead implements ReadLimiter: a read longer than the segment
// overlap plus one can span a segment cut and lose its SMEMs there.
func (e genaxEngine) CheckRead(read dna.Sequence) error {
	return checkCut(read, e.a.MaxReadLen(), "genax segment")
}

func (e genaxEngine) Unwrap() any { return e.a }

func genaxFactory() Factory {
	return Factory{
		Name:        "genax",
		Description: "GenAx baseline: hash seed-table RMEM search with lane-parallel intersection",
		New: func(ref dna.Sequence, opt Options) (Engine, error) {
			cfg := genax.DefaultConfig()
			switch c := opt.Config.(type) {
			case nil:
				if opt.TableK > 0 {
					cfg.K = opt.TableK
				}
				if opt.MinSMEM > 0 {
					cfg.MinSMEM = opt.MinSMEM
				}
				if opt.Partition > 0 {
					cfg.PartitionBases = opt.Partition
				}
				if opt.Exact {
					// One segment (overlap double-counts hits) and a table
					// k-mer no larger than the reporting floor.
					cfg.PartitionBases = len(ref)
					if cfg.K > cfg.MinSMEM {
						cfg.K = cfg.MinSMEM
					}
				}
			case genax.Config:
				cfg = c
			default:
				return nil, fmt.Errorf("engine: genax: Config is %T, want genax.Config", opt.Config)
			}
			a, err := genax.New(ref, cfg)
			if err != nil {
				return nil, err
			}
			return genaxEngine{a}, nil
		},
	}
}
