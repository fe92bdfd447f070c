package ert

import "casa/internal/metrics"

// Engine is the metric-name prefix for the ASIC-ERT baseline.
const Engine = "ert"

// publishStats adds one search-counter snapshot into the ert/* counters.
func publishStats(reg *metrics.Registry, s Stats) {
	reg.Counter("ert/search/index_fetches").Add(s.IndexFetches)
	reg.Counter("ert/search/node_fetches").Add(s.NodeFetches)
	reg.Counter("ert/search/ref_fetches").Add(s.RefFetches)
	reg.Counter("ert/search/pivots").Add(s.Pivots)
	reg.Counter("ert/search/reads").Add(s.Reads)
}

// PublishMetrics adds this shard's additive activity counters into reg.
// Shard registries merged in any order equal the sequential run's.
func (act *Activity) PublishMetrics(reg *metrics.Registry) {
	publishStats(reg, act.Stats)
	reg.Counter("ert/dram/read_stream_bytes").Add(act.ReadBytes)
}

// PublishModelMetrics publishes the finalized model outputs of a reduced
// Result: the replayed reuse-cache counts, time, throughput, DRAM
// traffic and energy. Call once per run, after Reduce.
func (res *Result) PublishModelMetrics(reg *metrics.Registry) {
	reg.Counter("ert/cache/hits").Add(res.CacheHits)
	reg.Counter("ert/cache/misses").Add(res.CacheMiss)
	reg.Gauge("ert/model/reads").Set(float64(len(res.Reads)))
	reg.Gauge("ert/model/seconds").Set(res.Seconds)
	reg.Gauge("ert/model/throughput_reads_per_s").Set(res.Throughput)
	reg.Gauge("ert/model/reads_per_mj").Set(res.ReadsPerMJ)
	res.DRAM.PublishMetrics(reg, Engine)
	res.Energy.PublishMetrics(reg, Engine)
}
