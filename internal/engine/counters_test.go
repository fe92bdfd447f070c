package engine_test

import (
	"math/rand"
	"testing"

	"casa/internal/batch"
	"casa/internal/dna"
	"casa/internal/engine"
	"casa/internal/metrics"
	"casa/internal/readsim"
)

// zeroByDesign names each published series that reads zero on every run,
// with the reason.
var zeroByDesign = map[string]string{
	"casa/dram/random_accesses":                 "CASA streams the reads and keeps its index on chip",
	"genax/dram/random_accesses":                "GenAx streams the reads and keeps its seed tables on chip",
	"casa/energy/ddr4_area_mm2":                 "the DDR4 is off chip",
	"casa/energy/dram_controller_phy_area_mm2":  "the DRAM controller PHY is off chip",
	"ert/energy/ddr4_64gb_index_area_mm2":       "the DDR4 is off chip",
	"ert/energy/dram_controller_phy_area_mm2":   "the DRAM controller PHY is off chip",
	"genax/energy/ddr4_area_mm2":                "the DDR4 is off chip",
	"genax/energy/dram_controller_phy_area_mm2": "the DRAM controller PHY is off chip",
}

// TestCountersChargedAndConserved seeds reads that mix exact reads,
// reads with errors and reads from nowhere in the reference through
// every modelled engine and a sharded composite, with casa and genax cut
// in two, and publishes each run's counters and model gauges. Every
// series must be nonzero unless zeroByDesign names it, so a counter that
// nothing charges fails here. On casa's published counters, flat and
// sharded, it also checks the identities the model implies: every filter
// lookup is one mini access and one tag search, whether or not the tag
// array is read on the host; every hit reads one indicator; and every
// pivot ends in exactly one of the four outcomes.
func TestCountersChargedAndConserved(t *testing.T) {
	const bases = 1 << 20
	ref := readsim.GenerateReference(readsim.DefaultGenome(bases, 3))
	reads := readsim.Sequences(readsim.Simulate(ref, readsim.DefaultProfile(40, 3)))
	reads = append(reads, readsim.Sequences(readsim.Simulate(ref, readsim.ReadProfile{
		Length: 101, Count: 40, Seed: 5, ErrRate: 0.03, RevComp: true,
	}))...)
	rng := rand.New(rand.NewSource(7))
	for range 40 {
		read := make(dna.Sequence, 101)
		for i := range read {
			read[i] = dna.Base(rng.Intn(4))
		}
		reads = append(reads, read)
	}
	for _, name := range []string{"casa", "ert", "genax", "cpu", "fmindex", "sharded:casa"} {
		e, err := engine.New(name, ref, engine.Options{Partition: bases / 2, Shards: 2, TableK: 10})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		reg := metrics.New()
		batch.SeedEngine(e, reads, batch.Options{Workers: 1, Metrics: reg})
		for _, s := range reg.Snapshots() {
			zero := s.Counter == 0 && s.Gauge == 0 && s.Count == 0
			if _, excused := zeroByDesign[s.Name]; zero != excused {
				t.Errorf("%s: %s %s is %v, zero by design: %v", name, s.Kind, s.Name, s.Gauge+float64(s.Counter+s.Count), excused)
			}
		}
		if reg.Counter("casa/pivots/total").Value() == 0 {
			continue
		}
		c := func(name string) int64 { return reg.Counter("casa/" + name).Value() }
		lookups, hits := c("filter/lookups"), c("filter/hits")
		if hits == lookups || c("reads/exact") == 0 || c("reads/discarded") == 0 {
			t.Fatalf("%s: degenerate fixture: %d lookups, %d hits, %d exact reads, %d discarded",
				name, lookups, hits, c("reads/exact"), c("reads/discarded"))
		}
		if mini, tags := c("filter/mini_accesses"), c("filter/tag_searches"); mini != lookups || tags != lookups {
			t.Errorf("%s: %d filter lookups, %d mini accesses, %d tag searches", name, lookups, mini, tags)
		}
		if data := c("filter/data_accesses"); data != hits {
			t.Errorf("%s: %d data accesses for %d filter hits", name, data, hits)
		}
		outcomes := c("pivots/filtered_table") + c("pivots/filtered_crkm") + c("pivots/filtered_align") + c("pivots/computed")
		if total := c("pivots/total"); outcomes != total {
			t.Errorf("%s: %d pivots, %d in the four outcomes", name, total, outcomes)
		}
	}
}
