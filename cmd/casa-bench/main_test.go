package main

import (
	"slices"
	"testing"
)

// TestRowWorkersSkipsOversubscribed: a pool wider than GOMAXPROCS would
// time the scheduler, so its rows are skipped, in request order.
func TestRowWorkersSkipsOversubscribed(t *testing.T) {
	run, skipped := rowWorkers([]int{1, 4, 2, 8}, 2)
	if !slices.Equal(run, []int{1, 2}) || !slices.Equal(skipped, []int{4, 8}) {
		t.Fatalf("run=%v skipped=%v, want [1 2] and [4 8]", run, skipped)
	}
	if run, skipped := rowWorkers([]int{1, 2}, 2); !slices.Equal(run, []int{1, 2}) || skipped != nil {
		t.Fatalf("run=%v skipped=%v: workers == GOMAXPROCS must run", run, skipped)
	}
}

// TestHostRowMedian: a row's time is the median of its samples, so one
// slow sample (a preempted batch) moves neither the row nor its
// throughput, while the samples stay in the document, in order, to show
// the spread.
func TestHostRowMedian(t *testing.T) {
	samples := []float64{0.0021, 0.0020, 0.0090, 0.0019, 0.0020}
	r := hostRow("casa", 2, 200, samples)
	if r.Engine != "casa" || r.Workers != 2 {
		t.Fatalf("row identity %q workers=%d", r.Engine, r.Workers)
	}
	if r.HostSeconds != 0.0020 || r.HostReadsPerS != 200/0.0020 {
		t.Fatalf("host_seconds=%v reads/s=%v, want the median 0.002 and 100000", r.HostSeconds, r.HostReadsPerS)
	}
	if !slices.Equal(r.HostRepSeconds, []float64{0.0021, 0.0020, 0.0090, 0.0019, 0.0020}) {
		t.Fatalf("samples reordered or dropped: %v", r.HostRepSeconds)
	}
	// The median does not depend on sample order.
	if rev := hostRow("casa", 2, 200, []float64{0.0020, 0.0019, 0.0090, 0.0020, 0.0021}); rev.HostSeconds != r.HostSeconds {
		t.Fatalf("median %v depends on sample order (want %v)", rev.HostSeconds, r.HostSeconds)
	}
	if even := hostRow("casa", 1, 200, []float64{0.004, 0.001, 0.003, 0.002}); even.HostSeconds != 0.0025 {
		t.Fatalf("even-count median %v, want 0.0025", even.HostSeconds)
	}
}
