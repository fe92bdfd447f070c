package energy_test

import (
	"math"
	"strings"
	"testing"

	"casa/internal/engine"
	"casa/internal/metrics"
	"casa/internal/readsim"
)

// TestComponentGaugesSumToTotals runs each engine that models energy and
// checks that its per-component gauges (the Table 4 breakdown) add up to
// the run's engine/energy/power_w and engine/energy/area_mm2 totals, that
// each engine publishes the component named in want, and that casa-serve
// can fold every name under its lifetime/ prefix.
func TestComponentGaugesSumToTotals(t *testing.T) {
	ref := readsim.GenerateReference(readsim.DefaultGenome(64<<10, 3))
	reads := readsim.Sequences(readsim.Simulate(ref, readsim.DefaultProfile(40, 4)))
	for _, tc := range []struct{ engine, want string }{
		{"casa", "pre_seeding_filter_mini_index"},
		{"ert", "ddr4_64gb_index"},
		{"genax", "seed_position_sram"},
	} {
		t.Run(tc.engine, func(t *testing.T) {
			e, err := engine.New(tc.engine, ref, engine.Options{Partition: 16 << 10, TableK: 10})
			if err != nil {
				t.Fatal(err)
			}
			reg := metrics.New()
			e.Reduce([]engine.Activity{e.SeedTrace(reads, nil, 0)}).PublishModelMetrics(reg)

			prefix := tc.engine + "/energy/"
			for _, stat := range []string{"power_w", "area_mm2"} {
				var sum float64
				components := map[string]bool{}
				for _, s := range reg.Snapshots() {
					rest, ok := strings.CutPrefix(s.Name, prefix)
					if comp, isComp := strings.CutSuffix(rest, "_"+stat); ok && isComp && s.Kind == "gauge" {
						sum += s.Gauge
						components[comp] = true
					}
				}
				if !components[tc.want] {
					t.Errorf("no %s%s_%s gauge among components %v", prefix, tc.want, stat, components)
				}
				if want := reg.Gauge(prefix + stat).Value(); want <= 0 || math.Abs(sum-want) > 1e-9*want {
					t.Errorf("%s components sum to %v, %s%s = %v", stat, sum, prefix, stat, want)
				}
			}
			if skipped := metrics.New().MergePrefixed(reg, "lifetime"); skipped != 0 {
				t.Errorf("%d names too long to fold under lifetime/", skipped)
			}
		})
	}
}
