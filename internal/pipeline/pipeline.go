// Package pipeline models the end-to-end genome-analysis pipeline of §7.3
// (Fig 14): I/O, seeding, preprocessing of seed extension (chaining, seed
// packaging), seed extension, and postprocessing, for the four compared
// systems — BWA-MEM2, CASA+SeedEx, ERT+SeedEx, and GenAx+SeedEx.
//
// Seeding times come from running the actual engine models; extension
// comes from running the real SeedEx machines on the seeds CASA produced
// (all engines emit identical SMEM sets, so the extension workload is
// shared). The systems differ structurally exactly as the paper explains:
// CASA and GenAx hold the reference on-chip, so seeding and extension run
// in parallel and seed preprocessing is negligible, while ERT "needs the
// CPU to perform the extra process on seeds and reference, such as
// chaining and packaging reads".
//
// The package also holds casa-align's align path (Aligner, align.go):
// strand completion, placement, pooled SeedEx extension, mate rescue,
// proper pairs and SAM records. The model and the aligner pick each
// read's strand with the same ChooseStrand.
package pipeline

import (
	"fmt"

	"casa/internal/core"
	"casa/internal/cpu"
	"casa/internal/dna"
	"casa/internal/engine"
	"casa/internal/ert"
	"casa/internal/genax"
	"casa/internal/seedex"
)

// Config sets the pipeline cost model around the engines.
type Config struct {
	DiskGBs          float64 // FASTQ in / SAM out streaming bandwidth
	FastqBytesPerBP  float64 // FASTQ bytes per base (sequence+quality+headers)
	SamBytesPerRead  float64 // SAM record bytes per read
	ChainPerSeedNS   float64 // CPU chaining/packaging per seed (ERT preprocessing)
	PostPerReadNS    float64 // CPU postprocessing per read (SAM fields, MAPQ)
	CPUGigaCellsPerS float64 // software banded-SW throughput for the BWA bar
	MaxHitsPerSMEM   int     // extension candidates resolved per SMEM

	// Seeding-time multipliers projecting the partitioned accelerators to
	// the paper's pass counts (see experiments.Scale.PaperProjection);
	// 0 means 1.0.
	CASASeedingScale  float64
	GenAxSeedingScale float64
}

// DefaultConfig returns the model defaults.
func DefaultConfig() Config {
	return Config{
		DiskGBs:          2.0,
		FastqBytesPerBP:  2.5,
		SamBytesPerRead:  350,
		ChainPerSeedNS:   400,
		PostPerReadNS:    500,
		CPUGigaCellsPerS: 20,
		MaxHitsPerSMEM:   4,
	}
}

// Validate checks the parameters.
func (c Config) Validate() error {
	if c.DiskGBs <= 0 || c.FastqBytesPerBP <= 0 || c.SamBytesPerRead <= 0 ||
		c.ChainPerSeedNS < 0 || c.PostPerReadNS < 0 || c.CPUGigaCellsPerS <= 0 ||
		c.MaxHitsPerSMEM <= 0 {
		return fmt.Errorf("pipeline: invalid config %+v", c)
	}
	return nil
}

// Breakdown is one system's stacked running time (Fig 14's components).
type Breakdown struct {
	System         string
	IO             float64 // input reading, SAM encoding/decoding
	Seeding        float64 // seeding alone (serial systems)
	PreProcessing  float64 // suffix-array lookup, chaining, packaging
	Extension      float64 // seed extension alone (serial systems)
	Overlapped     float64 // seeding + extension running in parallel
	PostProcessing float64
}

// Total returns the stacked wall time.
func (b Breakdown) Total() float64 {
	return b.IO + b.Seeding + b.PreProcessing + b.Extension + b.Overlapped + b.PostProcessing
}

// Normalize scales every component by 1/t.
func (b Breakdown) Normalize(t float64) Breakdown {
	if t <= 0 {
		return b
	}
	b.IO /= t
	b.Seeding /= t
	b.PreProcessing /= t
	b.Extension /= t
	b.Overlapped /= t
	b.PostProcessing /= t
	return b
}

// Engines bundles pre-built engines so a comparison reuses indexes.
type Engines struct {
	CASA   *core.Accelerator
	ERT    *ert.Accelerator
	GenAx  *genax.Accelerator
	BWA    *cpu.Seeder
	SeedEx *seedex.Machine
}

// Result is the full Fig 14 comparison: one breakdown per system plus the
// extension workload shared between them.
type Result struct {
	Breakdowns []Breakdown // BWA-MEM2, CASA+SeedEx, ERT+SeedEx, GenAx+SeedEx
	Alignments []seedex.Alignment
	Aligned    int // reads with a successful extension
	TotalSeeds int64
}

// Run executes the end-to-end comparison for a read batch.
func Run(e *Engines, reads []dna.Sequence, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	res := &Result{}

	// Seeding on every engine.
	casaRes := e.CASA.SeedReads(reads)
	ertRes := e.ERT.SeedReads(reads)
	genaxRes := e.GenAx.SeedReads(reads)
	bwaRes := e.BWA.SeedReads(reads)
	casaSeed := casaRes.Seconds * scaleOr1(cfg.CASASeedingScale)
	genaxSeed := genaxRes.Seconds * scaleOr1(cfg.GenAxSeedingScale)

	// Shared extension workload: SeedEx on the better strand per read,
	// chosen as casa-align chooses it.
	sxBefore := e.SeedEx.Stats
	for i, read := range reads {
		if c, ok := ChooseStrand(e.SeedEx, read, engine.Seeds(casaRes.Reads[i]), e.CASA.HitPositions, cfg.MaxHitsPerSMEM); ok {
			res.Alignments = append(res.Alignments, c.Al)
			res.Aligned++
		}
	}
	sxStats := diffSeedexStats(e.SeedEx.Stats, sxBefore)
	extSeconds := seedexSeconds(e.SeedEx, sxStats)
	for i := range casaRes.Reads {
		res.TotalSeeds += int64(len(casaRes.Reads[i].Forward) + len(casaRes.Reads[i].Reverse))
	}

	// Common IO model.
	var bases int64
	for _, r := range reads {
		bases += int64(len(r))
	}
	ioSeconds := (float64(bases)*cfg.FastqBytesPerBP + float64(len(reads))*cfg.SamBytesPerRead) /
		(cfg.DiskGBs * 1e9)
	post := float64(len(reads)) * cfg.PostPerReadNS * 1e-9
	chain := float64(res.TotalSeeds) * cfg.ChainPerSeedNS * 1e-9

	// BWA-MEM2: everything serial on the CPU, software extension.
	swCells := float64(sxStats.BSWCycles) * float64(2*e.SeedEx.Config().Band+1)
	bwaExt := swCells / (cfg.CPUGigaCellsPerS * 1e9)
	res.Breakdowns = append(res.Breakdowns, Breakdown{
		System:         "BWA-MEM2",
		IO:             ioSeconds,
		Seeding:        bwaRes.Seconds,
		PreProcessing:  chain,
		Extension:      bwaExt,
		PostProcessing: post,
	})

	// CASA+SeedEx: on-chip reference lets seeding and extension overlap;
	// preprocessing is negligible ("SMEMs generated by CASA and GenAx can
	// be directly used in SeedEx").
	res.Breakdowns = append(res.Breakdowns, Breakdown{
		System:         "CASA+SeedEx",
		IO:             ioSeconds,
		Overlapped:     maxF(casaSeed, extSeconds),
		PostProcessing: post,
	})

	// ERT+SeedEx: no on-chip reference, so the CPU chains and packages
	// seeds between seeding and extension; the stages serialize.
	res.Breakdowns = append(res.Breakdowns, Breakdown{
		System:         "ERT+SeedEx",
		IO:             ioSeconds,
		Seeding:        ertRes.Seconds,
		PreProcessing:  chain,
		Extension:      extSeconds,
		PostProcessing: post,
	})

	// GenAx+SeedEx: overlapped like CASA, but slower seeding.
	res.Breakdowns = append(res.Breakdowns, Breakdown{
		System:         "GenAx+SeedEx",
		IO:             ioSeconds,
		Overlapped:     maxF(genaxSeed, extSeconds),
		PostProcessing: post,
	})

	return res, nil
}

func scaleOr1(s float64) float64 {
	if s <= 0 {
		return 1
	}
	return s
}

func diffSeedexStats(after, before seedex.Stats) seedex.Stats {
	return seedex.Stats{
		Reads:      after.Reads - before.Reads,
		Extensions: after.Extensions - before.Extensions,
		BSWCycles:  after.BSWCycles - before.BSWCycles,
		EditRuns:   after.EditRuns - before.EditRuns,
		EditCycles: after.EditCycles - before.EditCycles,
	}
}

// seedexSeconds applies the SeedEx timing model to a stats delta.
func seedexSeconds(m *seedex.Machine, s seedex.Stats) float64 {
	cfg := m.Config()
	bsw := float64(s.BSWCycles) / (float64(cfg.Machines*cfg.BSWCores) * cfg.ClockHz)
	edit := float64(s.EditCycles) / (float64(cfg.Machines*cfg.EditMachines) * cfg.ClockHz)
	return maxF(bsw, edit)
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
