package main

import (
	"io"
	"log"
	"testing"
)

// TestBaselineModelNumbersReproducible reruns the quick workload in
// process and requires every model field to match the committed baseline
// bit for bit. This is the determinism contract applied to the committed
// artifact: host-path optimisations (scratch reuse, batched ranks, fast
// paths) may change host numbers freely, but if a regenerated baseline
// shifts a single model bit, the simulated hardware changed and the
// baseline diff must say so explicitly.
func TestBaselineModelNumbersReproducible(t *testing.T) {
	if testing.Short() {
		t.Skip("rebuilds every engine over the quick workload")
	}
	base, err := loadDoc("../../bench/baseline-quick.json")
	if err != nil {
		t.Fatal(err)
	}

	log.SetOutput(io.Discard) // silence runBench's per-row progress lines
	defer log.SetOutput(testWriter{t})
	cur := runBench("quick", []int{1})

	if cur.Workload != base.Workload {
		t.Fatalf("workload drifted: committed %+v, regenerated %+v", base.Workload, cur.Workload)
	}
	curRows := map[string]row{}
	for _, r := range cur.Engines {
		curRows[r.Engine] = r
	}
	for _, b := range modelRows(base) {
		c, ok := curRows[b.Engine]
		if !ok {
			t.Errorf("engine %q in baseline but not produced by runBench", b.Engine)
			continue
		}
		if c.ModelSeconds != b.ModelSeconds || c.ModelCycles != b.ModelCycles || c.ModelReadsPerS != b.ModelReadsPerS {
			t.Errorf("%s: model numbers drifted from committed baseline:\n  committed  seconds=%v cycles=%d reads/s=%v\n  regenerated seconds=%v cycles=%d reads/s=%v",
				b.Engine, b.ModelSeconds, b.ModelCycles, b.ModelReadsPerS, c.ModelSeconds, c.ModelCycles, c.ModelReadsPerS)
		}
	}
}

// testWriter routes stray log output through the test framework after a
// test has redirected the global logger.
type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", p)
	return len(p), nil
}
