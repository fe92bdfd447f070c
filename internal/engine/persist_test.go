package engine_test

import (
	"bytes"
	"strings"
	"testing"

	"casa/internal/dna"
	"casa/internal/engine"
	"casa/internal/idxio"
	"casa/internal/readsim"
	"casa/internal/smem"
)

// nonPersisters documents why each engine without Factory.NewEmpty gets
// away with rebuilding from FASTA, mirroring the allocation suite's
// excuse map: an engine may only skip persistence for a reason stated
// here, and a stale excuse (the engine learned to persist) fails too.
var nonPersisters = map[string]string{
	"brute": "definition-based scan of the raw reference; there is no index to persist",
	"ert":   "radix tree builds in one linear pass over the reference; rebuild is as fast as loading",
	"genax": "seed hash table builds in one linear pass; rebuild is as fast as loading",
}

func TestIndexPersistenceCoverage(t *testing.T) {
	for name := range nonPersisters {
		if _, ok := engine.Lookup(name); !ok {
			t.Errorf("%s: excused but not registered; drop its stale excuse", name)
		}
	}
	for _, f := range engine.List() {
		base := strings.TrimPrefix(f.Name, "sharded:")
		_, excused := nonPersisters[base]
		if f.NewEmpty == nil && !excused {
			t.Errorf("%s: does not persist and carries no documented excuse", f.Name)
		}
		if f.NewEmpty != nil && excused {
			t.Errorf("%s: persists now; drop its stale excuse", f.Name)
		}
	}
}

// TestIndexRoundTripSMEMsIdentical pins the acceptance criterion at the
// engine layer: for every persisting engine, an instance loaded from a
// serialized index produces per-read SMEM sets identical to the fresh
// FASTA-built instance that wrote it (the CLI smoke extends this to
// byte-identical casa-smem reports).
func TestIndexRoundTripSMEMsIdentical(t *testing.T) {
	ref := testRef(t)
	reads := readsim.Sequences(readsim.Simulate(ref, readsim.DefaultProfile(16, 5)))
	chroms := []idxio.Chromosome{{Name: "chr1", Start: 0, Length: int64(len(ref))}}
	for _, f := range engine.List() {
		opt := engine.Options{MinSMEM: 19, TableK: 8, Shards: 2}
		built, err := engine.New(f.Name, ref, opt)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		if f.NewEmpty == nil {
			if err := engine.SaveIndex(&bytes.Buffer{}, built, opt, chroms); err == nil {
				t.Errorf("%s: SaveIndex should fail for a non-persisting engine", f.Name)
			}
			continue
		}
		var buf bytes.Buffer
		if err := engine.SaveIndex(&buf, built, opt, chroms); err != nil {
			t.Fatalf("%s: SaveIndex: %v", f.Name, err)
		}
		loaded, hdr, err := engine.LoadIndex(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: LoadIndex: %v", f.Name, err)
		}
		if hdr.Engine != f.Name || hdr.MinSMEM != 19 || len(hdr.Chromosomes) != 1 ||
			hdr.Chromosomes[0] != chroms[0] {
			t.Fatalf("%s: header round trip: %+v", f.Name, hdr)
		}
		if loaded.Name() != built.Name() {
			t.Fatalf("%s: loaded engine is %q", f.Name, loaded.Name())
		}
		want := seedAll(built, reads)
		got := seedAll(loaded, reads)
		for i := range reads {
			if !smem.Equal(want[i], got[i]) {
				t.Fatalf("%s read %d:\nfresh  %v\nloaded %v", f.Name, i, want[i], got[i])
			}
		}

		// The container must also survive an inspection pass.
		hdr2, infos, err := idxio.ReadInfo(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: ReadInfo: %v", f.Name, err)
		}
		if hdr2.Engine != f.Name || len(infos) == 0 {
			t.Fatalf("%s: ReadInfo: engine %q, %d sections", f.Name, hdr2.Engine, len(infos))
		}
	}
}

func seedAll(e engine.Engine, reads []dna.Sequence) [][]smem.Match {
	c := e.Clone()
	act := c.SeedTrace(reads, nil, 0)
	return c.SMEMs(c.Reduce([]engine.Activity{act}))
}

func TestLoadIndexRejectsGarbage(t *testing.T) {
	if _, _, err := engine.LoadIndex(bytes.NewReader([]byte("not an index at all"))); err == nil {
		t.Fatal("garbage accepted")
	}
	// A valid container naming an unknown engine must list the registry.
	var buf bytes.Buffer
	w, err := idxio.NewWriter(&buf, idxio.Header{Engine: "warp-drive"})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, _, err = engine.LoadIndex(bytes.NewReader(buf.Bytes()))
	if err == nil || !strings.Contains(err.Error(), "warp-drive") || !strings.Contains(err.Error(), "casa") {
		t.Fatalf("err = %v", err)
	}
}

// A truncated container must fail cleanly on load, whatever the engine.
func TestLoadIndexRejectsTruncation(t *testing.T) {
	ref := testRef(t)
	for _, name := range []string{"casa", "cpu", "fmindex"} {
		opt := engine.Options{MinSMEM: 19}
		built, err := engine.New(name, ref, opt)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := engine.SaveIndex(&buf, built, opt, nil); err != nil {
			t.Fatal(err)
		}
		data := buf.Bytes()
		for _, cut := range []int{len(data) / 3, len(data) - 7} {
			if _, _, err := engine.LoadIndex(bytes.NewReader(data[:cut])); err == nil {
				t.Errorf("%s: truncation at %d accepted", name, cut)
			}
		}
	}
}
