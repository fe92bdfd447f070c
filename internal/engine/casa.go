package engine

import (
	"fmt"
	"io"

	"casa/internal/core"
	"casa/internal/dna"
	"casa/internal/idxio"
	"casa/internal/smem"
	"casa/internal/trace"
)

// casaEngine adapts *core.Accelerator — the paper's CAM-based design —
// to the Engine interface.
type casaEngine struct{ a *core.Accelerator }

// CASA wraps an already-built CASA accelerator (e.g. one loaded from a
// serialized index) as an Engine.
func CASA(a *core.Accelerator) Engine { return &casaEngine{a} }

func (e *casaEngine) Name() string  { return "casa" }
func (e *casaEngine) Clone() Engine { return &casaEngine{e.a.Clone()} }

func (e *casaEngine) SeedTrace(reads []dna.Sequence, tb *trace.Buffer, base int) Activity {
	return e.a.SeedTrace(reads, tb, base)
}

func (e *casaEngine) Reduce(acts []Activity) Result {
	return e.a.Reduce(typedActs[*core.Activity](acts)...)
}

func (e *casaEngine) Seeds(acts []Activity) []Seeds {
	n := 0
	for _, a := range acts {
		n += len(a.(*core.Activity).Reads)
	}
	out := make([]Seeds, 0, n)
	for _, a := range acts {
		for _, rr := range a.(*core.Activity).Reads {
			out = append(out, Seeds{Forward: rr.Forward, Reverse: rr.Reverse})
		}
	}
	return out
}

func (e *casaEngine) SeedsBothStrands() {}

func (e *casaEngine) SMEMs(res Result) [][]smem.Match {
	r := res.(*core.Result)
	out := make([][]smem.Match, len(r.Reads))
	for i, rr := range r.Reads {
		out[i] = rr.Forward
	}
	return out
}

// SeedReadInto implements ReadSeeder: the accelerator's per-read sweep
// runs against per-clone scratch and appends the merged strand SMEM sets
// into dst's reused buffers.
func (e *casaEngine) SeedReadInto(dst *Seeds, read dna.Sequence) bool {
	dst.Forward, dst.Reverse = e.a.SeedReadInto(dst.Forward[:0], dst.Reverse[:0], read)
	return true
}

func (e *casaEngine) ActivityCycles(act Activity) int64 {
	return e.a.ActivityCycles(act.(*core.Activity))
}

func (e *casaEngine) Model(res Result) Model {
	r := res.(*core.Result)
	return Model{Seconds: r.Seconds, Cycles: r.Cycles, ReadsPerS: r.Throughput()}
}

func (e *casaEngine) ReadSeeds(res Result) []Seeds {
	r := res.(*core.Result)
	out := make([]Seeds, len(r.Reads))
	for i, rr := range r.Reads {
		out[i] = Seeds{Forward: rr.Forward, Reverse: rr.Reverse}
	}
	return out
}

func (e *casaEngine) HitPositions(strand dna.Sequence, m smem.Match, maxHits int) []int32 {
	return e.a.HitPositions(strand, m, maxHits)
}

// CheckRead implements ReadLimiter: a read longer than the partition
// overlap plus one can span a partition cut and lose its SMEMs there.
func (e *casaEngine) CheckRead(read dna.Sequence) error {
	return checkCut(read, e.a.MaxReadLen(), "casa partition")
}

func (e *casaEngine) Unwrap() any { return e.a }

// SaveIndex implements IndexPersister with a single section holding the
// core package's native serialization (configuration, partitioning and
// per-partition filter tables).
func (e *casaEngine) SaveIndex(w *idxio.Writer) error {
	return w.Section("casa/accelerator", func(sw io.Writer) error {
		return e.a.WriteIndex(sw)
	})
}

// LoadIndex implements IndexPersister on a NewEmpty instance.
func (e *casaEngine) LoadIndex(r *idxio.Reader) error {
	sec, err := r.Section("casa/accelerator")
	if err != nil {
		return err
	}
	a, err := core.ReadIndex(sec)
	if err != nil {
		return err
	}
	e.a = a
	return nil
}

func casaFactory() Factory {
	return Factory{
		Name:        "casa",
		Description: "CAM-based SMEM seeding accelerator (the paper's design)",
		New: func(ref dna.Sequence, opt Options) (Engine, error) {
			cfg := core.DefaultConfig()
			switch c := opt.Config.(type) {
			case nil:
				if opt.MinSMEM > 0 {
					cfg.MinSMEM = opt.MinSMEM
				}
				if opt.Partition > 0 {
					cfg.PartitionBases = opt.Partition
				} else if cfg.PartitionBases > len(ref) {
					// Shrink to one partition for small references.
					for cfg.PartitionBases/2 >= len(ref) && cfg.PartitionBases > 1024 {
						cfg.PartitionBases /= 2
					}
				}
				if opt.Exact {
					// The configuration under which CASA's output is
					// defined to be the exact SMEM set: one partition
					// (overlap double-counts hits), no exact-match
					// prepass (it retires the non-matching strand), and
					// a pivot geometry valid at any MinSMEM >= K.
					cfg.K, cfg.M, cfg.Stride, cfg.Groups = 7, 4, 5, 4
					cfg.PartitionBases = len(ref)
					cfg.ExactMatchPrepass = false
				}
			case core.Config:
				cfg = c
			default:
				return nil, fmt.Errorf("engine: casa: Config is %T, want core.Config", opt.Config)
			}
			a, err := core.New(ref, cfg)
			if err != nil {
				return nil, err
			}
			return &casaEngine{a}, nil
		},
		NewEmpty: func(Options) (Engine, error) {
			// The serialized accelerator carries its full configuration;
			// the header options are informational for casa.
			return &casaEngine{}, nil
		},
	}
}
