package engine_test

import (
	"math/rand"
	"testing"

	"casa/internal/dna"
	"casa/internal/engine"
	"casa/internal/metrics"
	"casa/internal/readsim"
)

// TestFilterCountersConserved seeds reads that mix exact reads, reads
// with errors and reads from nowhere in the reference through casa and
// sharded:casa, both cut into partitions, and checks the identities the
// model implies on the published casa/* counters: every filter lookup is
// one mini access and one tag search, whether or not the tag array is
// read on the host; every hit reads one indicator; and every pivot ends
// in exactly one of the four outcomes.
func TestFilterCountersConserved(t *testing.T) {
	ref := testRef(t)
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
	for _, tc := range []struct {
		name string
		opt  engine.Options
	}{
		{"casa", engine.Options{Partition: 4096}},
		{"sharded:casa", engine.Options{Partition: 4096, Shards: 2}},
	} {
		e, err := engine.New(tc.name, ref, tc.opt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		act := e.SeedTrace(reads, nil, 0)
		reg := metrics.New()
		act.PublishMetrics(reg)
		c := func(name string) int64 { return reg.Counter("casa/" + name).Value() }

		lookups, hits := c("filter/lookups"), c("filter/hits")
		if lookups == 0 || hits == 0 || hits == lookups || c("reads/exact") == 0 || c("reads/discarded") == 0 {
			t.Fatalf("%s: degenerate fixture: %d lookups, %d hits, %d exact reads, %d discarded",
				tc.name, lookups, hits, c("reads/exact"), c("reads/discarded"))
		}
		if mini, tags := c("filter/mini_accesses"), c("filter/tag_searches"); mini != lookups || tags != lookups {
			t.Errorf("%s: %d filter lookups, %d mini accesses, %d tag searches", tc.name, lookups, mini, tags)
		}
		if data := c("filter/data_accesses"); data != hits {
			t.Errorf("%s: %d data accesses for %d filter hits", tc.name, data, hits)
		}
		total := c("pivots/total")
		outcomes := c("pivots/filtered_table") + c("pivots/filtered_crkm") + c("pivots/filtered_align") + c("pivots/computed")
		if total == 0 || outcomes != total {
			t.Errorf("%s: %d pivots, %d in the four outcomes", tc.name, total, outcomes)
		}
	}
}
