package core

// Discrete-event simulation of one partition pass through the Fig 9
// pipeline: the multi-banked pre-seeding filter feeding the 512-entry
// FIFO, which the parallel SMEM computing CAM lanes drain. The closed-form
// cycle model in SeedReads (max of the two phase totals) assumes the FIFO
// fully decouples the phases; this event simulator models the coupling —
// FIFO back-pressure stalls the filter, an empty FIFO starves the lanes —
// and is used by tests to bound the closed form's error and to study
// FIFO sizing.

// ReadCost is one strand-read's per-phase cost in cycles.
type ReadCost struct {
	FilterCycles  int64 // cycles the filter needs for this read's lookups
	ComputeCycles int64 // cycles one CAM lane needs for this read
	Discarded     bool  // no k-mer hit: never enters the FIFO
}

// PassResult is the simulated outcome of one partition pass.
type PassResult struct {
	Cycles        int64 // makespan
	FilterStall   int64 // filter cycles lost to FIFO back-pressure
	LaneIdle      int64 // lane-cycles spent starved (FIFO empty, work remaining)
	PeakFIFODepth int
}

// SimulatePartitionPass runs the event simulation: reads stream through
// the filter in order; completed reads enter the FIFO (unless discarded);
// ComputeCAMs lanes pull reads FIFO-order and work independently.
func SimulatePartitionPass(costs []ReadCost, cfg Config) PassResult {
	fifoCap := cfg.FIFODepth
	if fifoCap <= 0 {
		fifoCap = 1
	}
	lanes := make([]int64, cfg.ComputeCAMs) // next free cycle per lane
	var res PassResult

	// readyAt[i] is when read i enters the FIFO; consumption happens in
	// FIFO order, so lane assignment is a simple earliest-free choice.
	var filterClock int64
	type fifoItem struct {
		ready   int64
		compute int64
	}
	var queue []fifoItem

	// drainUntil pops queued reads whose turn comes before t, assigning
	// them to lanes; returns the number of items consumed.
	head := 0
	drainUntil := func(t int64) {
		for head < len(queue) {
			it := queue[head]
			// Earliest lane.
			li := 0
			for j := range lanes {
				if lanes[j] < lanes[li] {
					li = j
				}
			}
			start := max(it.ready, lanes[li])
			if start >= t {
				break
			}
			if lanes[li] < it.ready {
				res.LaneIdle += it.ready - lanes[li]
			}
			lanes[li] = start + it.compute
			head++
		}
	}

	for _, c := range costs {
		// The filter may have to wait for FIFO space before it can emit
		// the next read.
		for {
			drainUntil(filterClock)
			if len(queue)-head < fifoCap {
				break
			}
			// Stall the filter until the earliest lane frees an entry.
			next := lanes[0]
			for _, l := range lanes {
				if l < next {
					next = l
				}
			}
			stallTo := max(next, queue[head].ready)
			if stallTo <= filterClock {
				stallTo = filterClock + 1
			}
			res.FilterStall += stallTo - filterClock
			filterClock = stallTo
		}
		filterClock += c.FilterCycles
		if c.Discarded {
			continue
		}
		queue = append(queue, fifoItem{ready: filterClock, compute: c.ComputeCycles})
		if d := len(queue) - head; d > res.PeakFIFODepth {
			res.PeakFIFODepth = d
		}
	}
	// Drain everything.
	drainUntil(1 << 62)
	res.Cycles = filterClock
	for _, l := range lanes {
		if l > res.Cycles {
			res.Cycles = l
		}
	}
	return res
}

// ClosedFormCycles is the SeedReads model for the same inputs: the longer
// of the two phase totals, with compute spread across the lanes.
func ClosedFormCycles(costs []ReadCost, cfg Config) int64 {
	var filter, compute int64
	for _, c := range costs {
		filter += c.FilterCycles
		if !c.Discarded {
			compute += c.ComputeCycles
		}
	}
	lanes := int64(cfg.ComputeCAMs)
	return max(filter, (compute+lanes-1)/lanes)
}
