package dram

import "casa/internal/metrics"

// PublishMetrics publishes the final traffic totals as gauges under
// engine/dram/*. Call once per run, after the traffic is fully
// accumulated (e.g. from a Reduce'd Result): gauges overwrite, so the
// registry always holds the latest run's totals.
func (t *Traffic) PublishMetrics(reg *metrics.Registry, engine string) {
	reg.Gauge(engine + "/dram/bytes_read").Set(float64(t.BytesRead))
	reg.Gauge(engine + "/dram/random_accesses").Set(float64(t.RandomAccesses))
}
