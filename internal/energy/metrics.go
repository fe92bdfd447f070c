package energy

import (
	"strings"

	"casa/internal/metrics"
)

// PublishMetrics publishes the report's totals as gauges under
// engine/energy/*, and the Table 4 breakdown as two gauges per
// component, engine/energy/<component>_power_w and
// engine/energy/<component>_area_mm2, where <component> is metricSegment
// of the component's name. The names keep three segments so that
// casa-serve can fold them under its lifetime/ prefix within the
// registry's four. Call once per run with the final report: gauges
// overwrite, so the registry always holds the latest run's values.
func (r Report) PublishMetrics(reg *metrics.Registry, engine string) {
	reg.Gauge(engine + "/energy/total_j").Set(r.TotalJ())
	reg.Gauge(engine + "/energy/dynamic_j").Set(r.DynamicJ())
	reg.Gauge(engine + "/energy/leakage_w").Set(r.LeakageW())
	reg.Gauge(engine + "/energy/power_w").Set(r.PowerW())
	reg.Gauge(engine + "/energy/area_mm2").Set(r.AreaMM2())
	for _, c := range r.Components {
		prefix := engine + "/energy/" + metricSegment(c.Name)
		reg.Gauge(prefix + "_power_w").Set(r.powerW(c))
		reg.Gauge(prefix + "_area_mm2").Set(c.AreaMM2)
	}
}

// metricSegment lower-cases a component name and turns each run of other
// characters than [a-z0-9] into one '_', dropping them at either end:
// "pre-seeding filter: mini index" becomes pre_seeding_filter_mini_index.
func metricSegment(name string) string {
	var sb strings.Builder
	gap := false
	for _, ch := range strings.ToLower(name) {
		if 'a' <= ch && ch <= 'z' || '0' <= ch && ch <= '9' {
			if gap && sb.Len() > 0 {
				sb.WriteByte('_')
			}
			sb.WriteRune(ch)
			gap = false
		} else {
			gap = true
		}
	}
	return sb.String()
}
