// Package core implements CASA, the paper's primary contribution: a
// CAM-based SMEM seeding accelerator built from a pre-seeding filter table
// (mini index + 9-mer tag CAM + data array, §4.1), SMEM computing CAMs with
// non-overlapped reference storage and group-level power gating (§3, §4.1),
// the filter-enabled SMEM seeding algorithm (Algorithm 1, §4.2), and the
// exact-match read pre-processing pass (§4.3).
//
// The implementation is a behavioural + cycle-approximate architectural
// simulator: SMEM results are bit-exact (cross-validated against the golden
// finders in internal/smem), while cycles and energy are accounted from the
// same per-event activity the paper's cycle-level C++ simulator counts.
package core

import (
	"fmt"
	"math"

	"casa/internal/dna"
)

// Config holds CASA's architectural parameters. The zero value is not
// valid; start from DefaultConfig.
type Config struct {
	K              int     // seed k-mer size (19 in the paper)
	M              int     // mini index m-mer size (10)
	MinSMEM        int     // minimum reported SMEM length (l = 19)
	Stride         int     // bases per computing-CAM entry (40 = 80-bit word)
	Groups         int     // computing-CAM power-gating groups (20)
	ComputeCAMs    int     // parallel SMEM computing CAM lanes (10)
	PartitionBases int     // reference bases per partition (4 Mbases = "1MB")
	FilterBanks    int     // pre-seeding filter banks (parallel lookups/cycle)
	FIFODepth      int     // read FIFO between filter and computing stages (512)
	ClockHz        float64 // controller clock (2 GHz)

	// Ablation switches (all true in the paper's CASA configuration).
	UseFilterTable    bool // pre-seeding filter table ("table" in Fig 15)
	UseAnalysis       bool // CRkM + alignment analyses ("table+analysis")
	ExactMatchPrepass bool // §4.3 exact-match read pre-processing
	GroupGating       bool // enable only the CAM group holding the k-mer
	EntryGating       bool // enable only successor entries during strides
}

// DefaultConfig returns the paper's CASA configuration (§5, §6).
func DefaultConfig() Config {
	return Config{
		K:              19,
		M:              10,
		MinSMEM:        19,
		Stride:         40,
		Groups:         20,
		ComputeCAMs:    10,
		PartitionBases: 4 << 20,
		// The paper never states the filter's bank count, but its
		// published throughput (~3 Mreads/s over 768 partition passes of
		// ~166 pivot lookups each at 2 GHz) requires a few hundred
		// lookups per cycle; 512 banks back-solve to that rate and keep
		// the pre-seeding phase faster than SMEM computing, as §4.1
		// asserts.
		FilterBanks:       512,
		FIFODepth:         512,
		ClockHz:           2e9,
		UseFilterTable:    true,
		UseAnalysis:       true,
		ExactMatchPrepass: true,
		GroupGating:       true,
		EntryGating:       true,
	}
}

// maxTagBases is the longest (k-m)-mer suffix the filter's tag array
// holds: 16 bases fill its 32-bit host tags (the paper's k=19, m=10 uses
// 9).
const maxTagBases = 16

// MaxMiniBases is the longest m-mer prefix the mini index is keyed by. Its
// 4^m bounds of 4 bytes cost 64 MiB per partition at m=12, 16 times the
// paper's m=10, and every partition holds one.
const MaxMiniBases = 12

// Validate checks parameter consistency.
func (c Config) Validate() error {
	switch {
	case c.K <= 0 || c.K > dna.MaxK:
		return fmt.Errorf("core: k=%d out of range (1..%d)", c.K, dna.MaxK)
	case c.M <= 0 || c.M >= c.K:
		return fmt.Errorf("core: m=%d must be in (0, k=%d)", c.M, c.K)
	case c.M > MaxMiniBases:
		return fmt.Errorf("core: m=%d exceeds the %d-base mini index limit (4^m entries per partition)", c.M, MaxMiniBases)
	case c.K-c.M > maxTagBases:
		// The host tag array holds each (k-m)-mer suffix in 32 bits.
		return fmt.Errorf("core: k-m=%d exceeds the %d-base tag limit (tags are held in 32 bits)", c.K-c.M, maxTagBases)
	case c.MinSMEM < c.K:
		// CASA seeds with k-mers: matches shorter than k are invisible to
		// the filter, so the minimum SMEM length must be >= k (the paper
		// keeps "k less than [or equal to] the minimum SMEM length").
		return fmt.Errorf("core: MinSMEM=%d must be >= k=%d", c.MinSMEM, c.K)
	case c.Stride <= 0 || c.Stride > 64:
		return fmt.Errorf("core: stride=%d out of range (1..64)", c.Stride)
	case c.Groups <= 0 || c.Groups > 64:
		return fmt.Errorf("core: groups=%d out of range (1..64)", c.Groups)
	case c.ComputeCAMs <= 0:
		return fmt.Errorf("core: ComputeCAMs=%d must be positive", c.ComputeCAMs)
	case c.PartitionBases < c.Stride:
		return fmt.Errorf("core: partition of %d bases smaller than one CAM entry", c.PartitionBases)
	case c.PartitionBases > math.MaxInt32:
		// Filter positions are int32 offsets into the partition.
		return fmt.Errorf("core: partition of %d bases exceeds the int32 position limit %d", c.PartitionBases, math.MaxInt32)
	case c.FilterBanks <= 0:
		return fmt.Errorf("core: FilterBanks=%d must be positive", c.FilterBanks)
	case c.ClockHz <= 0:
		return fmt.Errorf("core: ClockHz must be positive")
	case !c.UseFilterTable && c.UseAnalysis:
		return fmt.Errorf("core: the pivot analyses need the filter table's search indicators")
	}
	return nil
}

// OnChipBytes returns the modelled on-chip memory of one CASA instance:
// the pre-seeding filter (mini index + tag + data arrays) plus the
// computing CAMs, matching the paper's 45 MB + 10 MB = 55 MB budget at the
// default dimensions.
func (c Config) OnChipBytes() int64 {
	return c.FilterBytes() + c.ComputeCAMBytes()
}

// FilterBytes returns the pre-seeding filter capacity in bytes:
// 4^m entries x 48-bit pointers (mini index) + n x 18-bit tags +
// n x 60-bit search indicators, with n = PartitionBases.
func (c Config) FilterBytes() int64 {
	mini := int64(dna.NumKmers(c.M)) * 48 / 8
	tag := int64(c.PartitionBases) * 18 / 8
	data := int64(c.PartitionBases) * int64(c.IndicatorBits()) / 8
	return mini + tag + data
}

// ComputeCAMBytes returns the computing CAM capacity: ComputeCAMs copies
// of the 2-bit-packed partition.
func (c Config) ComputeCAMBytes() int64 {
	return int64(c.ComputeCAMs) * int64(c.PartitionBases) / 4
}

// IndicatorBits returns the width of one search indicator word:
// Stride start-position bits + Groups group-indicator bits (40+20=60).
func (c Config) IndicatorBits() int { return c.Stride + c.Groups }

// EntriesPerPartition returns the number of computing-CAM entries holding
// one partition (non-overlapped storage: n/stride).
func (c Config) EntriesPerPartition() int {
	return (c.PartitionBases + c.Stride - 1) / c.Stride
}
