// Tests of the public facade: everything a downstream user touches must
// work through the root package alone.
package casa_test

import (
	"reflect"
	"testing"

	"casa"
)

// facadeWorkload builds a small genome + reads through the public API.
func facadeWorkload(t *testing.T) (casa.Sequence, []casa.Read) {
	t.Helper()
	ref := casa.GenerateReference(casa.DefaultGenome(128<<10, 5))
	if len(ref) != 128<<10 {
		t.Fatalf("genome length = %d", len(ref))
	}
	sim := casa.Simulate(ref, casa.DefaultProfile(40, 9))
	if len(sim) != 40 {
		t.Fatalf("reads = %d", len(sim))
	}
	return ref, sim
}

func TestFacadeSeeding(t *testing.T) {
	ref, sim := facadeWorkload(t)
	cfg := casa.DefaultConfig()
	cfg.PartitionBases = 32 << 10
	acc, err := casa.New(ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := acc.SeedReads(casa.Sequences(sim))
	if res.Throughput() <= 0 || res.Energy.PowerW() <= 0 {
		t.Error("model outputs missing through the facade")
	}
}

// TestFacadeLiveProgress seeds a batch on a pool of four workers through
// the root package alone and checks that the pooled result equals a
// sequential SeedReads run: parallelism changes host wall-clock, never
// the SMEMs or the modelled hardware.
func TestFacadeLiveProgress(t *testing.T) {
	ref, sim := facadeWorkload(t)
	cfg := casa.DefaultConfig()
	cfg.PartitionBases = 32 << 10
	acc, err := casa.New(ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	reads := casa.Sequences(sim)
	want := acc.SeedReads(reads)
	got := casa.RunEngine(casa.CASAEngine(acc), reads, casa.BatchOptions{Workers: 4}).(*casa.Result)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("workers=4 result differs from SeedReads:\n got %+v\nwant %+v", got, want)
	}
}

func TestFacadeChaining(t *testing.T) {
	anchors := []casa.Anchor{
		{Q: 0, R: 100, Len: 20},
		{Q: 25, R: 125, Len: 20},
	}
	ch, err := casa.BestChain(anchors, casa.DefaultChainOptions())
	if err != nil {
		t.Fatal(err)
	}
	if ch.Score != 40 || len(ch.Anchors) != 2 {
		t.Errorf("chain = %+v", ch)
	}
}

func TestFacadeSequenceHelpers(t *testing.T) {
	m := casa.Match{Start: 2, End: 10}
	if m.Len() != 9 {
		t.Error("Match.Len through facade broken")
	}
}
