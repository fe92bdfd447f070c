package core

import (
	"math"
	"testing"
)

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestDefaultConfigPaperDimensions(t *testing.T) {
	c := DefaultConfig()
	if c.K != 19 || c.M != 10 || c.MinSMEM != 19 || c.Stride != 40 ||
		c.Groups != 20 || c.ComputeCAMs != 10 {
		t.Errorf("paper dimensions drifted: %+v", c)
	}
	if c.IndicatorBits() != 60 {
		t.Errorf("search indicator = %d bits, want 60", c.IndicatorBits())
	}
}

func TestOnChipBudgetMatchesPaper(t *testing.T) {
	// §1/§4.1: 45 MB pre-seeding filter + 10 MB computing CAMs = 55 MB.
	c := DefaultConfig()
	mb := func(b int64) float64 { return float64(b) / (1 << 20) }
	if got := mb(c.FilterBytes()); got < 44 || got > 46 {
		t.Errorf("filter = %.2f MB, want ~45", got)
	}
	if got := mb(c.ComputeCAMBytes()); got != 10 {
		t.Errorf("computing CAMs = %.2f MB, want 10", got)
	}
	if got := mb(c.OnChipBytes()); got < 54 || got > 56 {
		t.Errorf("on-chip = %.2f MB, want ~55", got)
	}
}

func TestFilterBytesComponents(t *testing.T) {
	// Fig 11: mini index 6MB, tag array 9MB, data array 30MB.
	c := DefaultConfig()
	mini := int64(1<<20) * 48 / 8
	tag := int64(c.PartitionBases) * 18 / 8
	data := int64(c.PartitionBases) * 60 / 8
	if mini != 6<<20 {
		t.Errorf("mini index = %d, want 6MB", mini)
	}
	if tag != 9<<20 {
		t.Errorf("tag array = %d, want 9MB", tag)
	}
	if data != 30<<20 {
		t.Errorf("data array = %d, want 30MB", data)
	}
	if c.FilterBytes() != mini+tag+data {
		t.Errorf("FilterBytes = %d, want %d", c.FilterBytes(), mini+tag+data)
	}
}

func TestEntriesPerPartition(t *testing.T) {
	c := DefaultConfig()
	if got := c.EntriesPerPartition(); got != (4<<20)/40+1 && got != (4<<20+39)/40 {
		t.Errorf("EntriesPerPartition = %d", got)
	}
	c.PartitionBases = 80
	if got := c.EntriesPerPartition(); got != 2 {
		t.Errorf("80 bases / stride 40 = %d entries, want 2", got)
	}
}

func TestValidateRejections(t *testing.T) {
	mutate := []func(*Config){
		func(c *Config) { c.K = 0 },
		func(c *Config) { c.K = 32 },
		func(c *Config) { c.M = 0 },
		func(c *Config) { c.M = c.K },
		func(c *Config) { c.MinSMEM = c.K - 1 },
		func(c *Config) { c.Stride = 0 },
		func(c *Config) { c.Stride = 65 },
		func(c *Config) { c.Groups = 0 },
		func(c *Config) { c.ComputeCAMs = 0 },
		func(c *Config) { c.PartitionBases = 10 },
		func(c *Config) { c.PartitionBases = math.MaxInt32 + 1 }, // int32 positions
		func(c *Config) { c.K, c.M, c.MinSMEM = 29, 12, 29 },     // k-m=17 > 32-bit tags
		func(c *Config) { c.K, c.M, c.MinSMEM = 24, 13, 24 },     // m=13 > mini index limit
		func(c *Config) { c.K, c.M, c.MinSMEM = 31, 25, 31 },     // 4^25-entry mini index
		func(c *Config) { c.FilterBanks = 0 },
		func(c *Config) { c.ClockHz = 0 },
		func(c *Config) { c.UseFilterTable = false }, // analyses still on
	}
	for i, f := range mutate {
		c := DefaultConfig()
		f(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted: %+v", i, c)
		}
	}
}

// TestValidateLimitsAtBoundary accepts the widest tag, the longest mini
// index prefix and the largest partition the host tables hold, one step
// short of the rejections above.
func TestValidateLimitsAtBoundary(t *testing.T) {
	c := DefaultConfig()
	c.K, c.M, c.MinSMEM = 28, MaxMiniBases, 28
	c.PartitionBases = math.MaxInt32
	if err := c.Validate(); err != nil {
		t.Errorf("m=%d, k-m=16 with a MaxInt32 partition rejected: %v", MaxMiniBases, err)
	}
}

func TestNaiveConfigValid(t *testing.T) {
	c := DefaultConfig()
	c.UseFilterTable = false
	c.UseAnalysis = false
	if err := c.Validate(); err != nil {
		t.Errorf("naive mode invalid: %v", err)
	}
}
