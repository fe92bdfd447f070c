package core

import "casa/internal/metrics"

// Engine is the metric-name prefix for the CASA accelerator.
const Engine = "casa"

// publishPartStats adds one aggregated PartStats into the casa/* counters.
func publishPartStats(reg *metrics.Registry, s PartStats) {
	reg.Counter("casa/reads/seeded").Add(s.ReadsSeeded)
	reg.Counter("casa/reads/discarded").Add(s.ReadsDiscarded)
	reg.Counter("casa/reads/exact").Add(s.ReadsExact)

	reg.Counter("casa/pivots/total").Add(s.PivotsTotal)
	reg.Counter("casa/pivots/filtered_table").Add(s.PivotsFilteredTable)
	reg.Counter("casa/pivots/filtered_crkm").Add(s.PivotsFilteredCRkM)
	reg.Counter("casa/pivots/filtered_align").Add(s.PivotsFilteredAlign)
	reg.Counter("casa/pivots/computed").Add(s.PivotsComputed)

	reg.Counter("casa/smem/rmem_searches").Add(s.RMEMSearches)
	reg.Counter("casa/smem/stride_steps").Add(s.StrideSteps)
	reg.Counter("casa/smem/binsearch_steps").Add(s.BinSearchSteps)
	reg.Counter("casa/smem/cam_searches").Add(s.CAMSearches)
	reg.Counter("casa/smem/cam_rows_enabled").Add(s.CAMRowsEnabled)
	reg.Counter("casa/smem/compute_cycles").Add(s.ComputeCycles)

	reg.Counter("casa/filter/lookups").Add(s.Filter.Lookups)
	reg.Counter("casa/filter/hits").Add(s.Filter.Hits)
	reg.Counter("casa/filter/mini_accesses").Add(s.Filter.MiniAccesses)
	reg.Counter("casa/filter/tag_searches").Add(s.Filter.TagSearches)
	reg.Counter("casa/filter/tag_rows_enabled").Add(s.Filter.TagRowsEnabled)
	reg.Counter("casa/filter/data_accesses").Add(s.Filter.DataAccesses)
}

// PublishMetrics adds this shard's additive activity counters into reg.
// Safe to call from the worker that owns the activity; shard registries
// merged in any order equal the sequential run's registry.
func (act *Activity) PublishMetrics(reg *metrics.Registry) {
	var s PartStats
	for _, p := range act.Stage1 {
		s.add(p)
	}
	for _, p := range act.Stage2 {
		s.add(p)
	}
	publishPartStats(reg, s)
	reg.Counter("casa/dram/read_stream_bytes").Add(act.ReadBytes)
}

// PublishModelMetrics publishes the finalized model outputs (gauges) of a
// reduced Result: cycles, time, throughput, DRAM traffic and energy.
// Call once per run, after Reduce.
func (res *Result) PublishModelMetrics(reg *metrics.Registry) {
	reg.Gauge("casa/model/reads").Set(float64(len(res.Reads)))
	reg.Gauge("casa/model/cycles").Set(float64(res.Cycles))
	reg.Gauge("casa/model/seconds").Set(res.Seconds)
	reg.Gauge("casa/model/throughput_reads_per_s").Set(res.Throughput())
	reg.Gauge("casa/model/reads_per_mj").Set(res.ReadsPerMJ())
	res.DRAM.PublishMetrics(reg, Engine)
	res.Energy.PublishMetrics(reg, Engine)
}
