package engine

import (
	"fmt"

	"casa/internal/dna"
	"casa/internal/idxio"
	"casa/internal/metrics"
	"casa/internal/smem"
	"casa/internal/trace"
)

// finderActivity is one shard's per-read SMEM sets from a plain
// smem.Finder, plus the shard's summed search cost when the finder
// counts one (counter names the metric; empty for finders that count
// nothing).
type finderActivity struct {
	smems   [][]smem.Match
	counter string
	cost    int64
}

func (a finderActivity) PublishMetrics(reg *metrics.Registry) {
	if a.counter != "" {
		reg.Counter(a.counter).Add(a.cost)
	}
}

// finderResult is a reduced finder run; finders have no hardware model.
type finderResult struct{ smems [][]smem.Match }

func (finderResult) PublishModelMetrics(*metrics.Registry) {}

// seedCoster is the optional finder extension the activity counter and
// trace path use: the modelled cost of the finder's most recent
// FindSMEMs call, in the finder's native unit (FM-index steps, ...).
type seedCoster interface {
	SeedCost() int64
}

// appendFinder is the optional allocation-free finder extension:
// AppendSMEMs appends the read's SMEMs to dst, reusing its capacity and
// the finder's internal scratch.
type appendFinder interface {
	AppendSMEMs(dst []smem.Match, read dna.Sequence, minLen int) []smem.Match
}

// finderEngine lifts any smem.Finder to an Engine: forward-strand SMEMs
// only, no timing model.
type finderEngine struct {
	name   string
	minLen int
	finder smem.Finder
	// clone derives a worker's independent finder; nil shares the
	// original (stateless finders).
	clone func(smem.Finder) smem.Finder
	// counter names the metric a shard's summed SeedCost is published
	// under; empty for finders that count nothing.
	counter string

	// save/load serialize the finder into / out of a casa-idx container;
	// nil marks a finder with nothing worth persisting (brute scans the
	// raw reference), whose SaveIndex reports a clean error.
	save func(*finderEngine, *idxio.Writer) error
	load func(*finderEngine, *idxio.Reader) error

	// buf is the per-instance search destination for append-capable
	// finders; retained results are exact-size copies of it.
	buf []smem.Match
}

func (e *finderEngine) Name() string { return e.name }

func (e *finderEngine) Clone() Engine {
	c := *e
	if e.clone != nil {
		c.finder = e.clone(e.finder)
	}
	// The struct copy above would share buf's backing array with e; a
	// clone must own its scratch (it regrows on first use).
	c.buf = nil
	return &c
}

func (e *finderEngine) SeedTrace(reads []dna.Sequence, tb *trace.Buffer, base int) Activity {
	act := finderActivity{smems: make([][]smem.Match, len(reads)), counter: e.counter}
	costed, _ := e.finder.(seedCoster)
	appender, _ := e.finder.(appendFinder)
	for i, r := range reads {
		if appender != nil {
			e.buf = appender.AppendSMEMs(e.buf[:0], r, e.minLen)
			act.smems[i] = smem.Retain(e.buf)
		} else {
			act.smems[i] = e.finder.FindSMEMs(r, e.minLen)
		}
		if costed != nil {
			cost := costed.SeedCost()
			act.cost += cost
			if tb != nil {
				tb.Emit(base+i, "seed", "find", 0, cost)
			}
		}
	}
	return act
}

// SeedReadInto implements ReadSeeder for finder engines whose finder
// supports append-style search (the FM-index finders). Finder engines are
// forward-strand only, so Reverse is reset empty. The brute-force oracle
// runs behind this same adapter but allocates by design (quadratic
// definition-based scans); it reports false and stays on FindSMEMs.
func (e *finderEngine) SeedReadInto(dst *Seeds, read dna.Sequence) bool {
	appender, ok := e.finder.(appendFinder)
	if !ok {
		return false
	}
	dst.Forward = appender.AppendSMEMs(dst.Forward[:0], read, e.minLen)
	dst.Reverse = dst.Reverse[:0]
	return true
}

func (e *finderEngine) Reduce(_ []dna.Sequence, acts []Activity) Result {
	var merged [][]smem.Match
	for _, a := range acts {
		merged = append(merged, a.(finderActivity).smems...)
	}
	return finderResult{merged}
}

func (e *finderEngine) SMEMs(res Result) [][]smem.Match {
	return res.(finderResult).smems
}

func (e *finderEngine) Unwrap() any { return e.finder }

// SaveIndex / LoadIndex implement IndexPersister for finders with
// persistence hooks; hook-less finders (brute) fail with a clear error
// and rebuild from FASTA instead.
func (e *finderEngine) SaveIndex(w *idxio.Writer) error {
	if e.save == nil {
		return fmt.Errorf("engine: %s does not support index persistence", e.name)
	}
	return e.save(e, w)
}

func (e *finderEngine) LoadIndex(r *idxio.Reader) error {
	if e.load == nil {
		return fmt.Errorf("engine: %s does not support index persistence", e.name)
	}
	return e.load(e, r)
}

// minSMEMOrDefault resolves the finder engines' reporting floor; the
// accelerator engines get theirs from their configs' defaults.
func minSMEMOrDefault(opt Options) int {
	if opt.MinSMEM > 0 {
		return opt.MinSMEM
	}
	return 19
}

func fmindexFactory() Factory {
	// shell builds the engine around a finder-to-be: New fills it with a
	// fresh build, NewEmpty leaves it for LoadIndex.
	shell := func(opt Options) *finderEngine {
		return &finderEngine{
			name:    "fmindex",
			minLen:  minSMEMOrDefault(opt),
			counter: "fmindex/search/steps",
			clone: func(f smem.Finder) smem.Finder {
				return f.(*smem.Bidirectional).Clone()
			},
			save: func(e *finderEngine, w *idxio.Writer) error {
				return saveBidirectional(w, "fmindex/", e.finder.(*smem.Bidirectional))
			},
			load: func(e *finderEngine, r *idxio.Reader) error {
				f, err := loadBidirectional(r, "fmindex/")
				if err != nil {
					return err
				}
				e.finder = f
				return nil
			},
		}
	}
	return Factory{
		Name:        "fmindex",
		Aliases:     []string{"fm"},
		Description: "bidirectional FM-index SMEM search (behavioural reference, no timing model)",
		New: func(ref dna.Sequence, opt Options) (Engine, error) {
			e := shell(opt)
			e.finder = smem.NewBidirectional(ref)
			return e, nil
		},
		NewEmpty: func(opt Options) (Engine, error) {
			return shell(opt), nil
		},
	}
}

func bruteFactory() Factory {
	return Factory{
		Name:        "brute",
		Aliases:     []string{"bruteforce", "golden"},
		Description: "definition-based brute-force oracle (exact by construction; quadratic, validation only)",
		Golden:      true,
		New: func(ref dna.Sequence, opt Options) (Engine, error) {
			// BruteForce holds no mutable state: every worker shares it.
			return &finderEngine{
				name:   "brute",
				minLen: minSMEMOrDefault(opt),
				finder: smem.BruteForce{Ref: ref},
			}, nil
		},
	}
}
