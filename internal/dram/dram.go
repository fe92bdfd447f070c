// Package dram models DDR4 main memory for the accelerator simulators: a
// bandwidth-limited channel model with per-byte access energy, per-GB
// background power, and a random-access latency. It substitutes for the
// paper's DRAMpower + Ramulator + Micron datasheet flow (§6); see
// DESIGN.md.
//
// The model captures what the paper's DRAM conclusions rest on:
//
//   - CASA streams reads over 2 channels at ~25 GB/s, so its DRAM power is
//     a few watts (Table 4: DDR4 3.604 W + PHY 1.798 W);
//   - ASIC-ERT keeps a 64 GB index in DRAM and sustains ~68 GB/s of mostly
//     random traffic, so its DRAM power exceeds 15 W (§2.2);
//   - CPU seeding is bound by dependent random accesses at ~100 ns each.
package dram

// Config describes one DDR4 subsystem.
type Config struct {
	Channels        int     // number of DDR4 channels
	ChannelGBs      float64 // peak bandwidth per channel, GB/s
	CapacityGB      float64 // installed capacity (drives background power)
	Utilization     float64 // achievable fraction of peak (1.0 = ideal)
	AccessEnergyPJb float64 // dynamic energy per bit transferred, pJ/bit
	BackgroundWGB   float64 // background (refresh+standby) power per GB, W
	PHYW            float64 // controller PHY power, W
	RandLatencyNS   float64 // random access latency, ns
}

// DDR4-2400 x64: 19.2 GB/s per channel. Access energy and background
// power approximate Micron DDR4 power calculator outputs.
const (
	ddr4ChannelGBs    = 19.2
	ddr4AccessPJb     = 15.0  // pJ per bit moved (activate+IO averaged)
	ddr4BackgroundWGB = 0.094 // W per GB of installed DRAM
	ddr4RandLatNS     = 95
)

// CASAConfig is CASA's DRAM subsystem: two channels used only to stream
// read batches ("two DDR4 channels, delivering an average bandwidth of
// 25GB/s", §5), small capacity, PHY from Table 4.
func CASAConfig() Config {
	return Config{
		Channels:        2,
		ChannelGBs:      ddr4ChannelGBs,
		CapacityGB:      8,
		Utilization:     0.65, // 2x19.2 GB/s peak -> ~25 GB/s average
		AccessEnergyPJb: ddr4AccessPJb,
		BackgroundWGB:   ddr4BackgroundWGB,
		PHYW:            1.798,
		RandLatencyNS:   ddr4RandLatNS,
	}
}

// ERTConfig is ASIC-ERT's DRAM subsystem: a 64 GB dedicated index across
// four channels, ~50% average utilization from random tree-root fetches
// (§2.2: "only about 50% DDR4 bandwidth on average is utilized").
func ERTConfig() Config {
	return Config{
		Channels:        4,
		ChannelGBs:      2 * ddr4ChannelGBs, // dual-rank, wider ERT memory system
		CapacityGB:      64,
		Utilization:     0.5,
		AccessEnergyPJb: ddr4AccessPJb * 1.5, // random rows: more activates per bit
		BackgroundWGB:   ddr4BackgroundWGB,
		PHYW:            1.798,
		RandLatencyNS:   ddr4RandLatNS,
	}
}

// GenAxConfig is GenAx's DRAM subsystem: like CASA it only streams reads
// (the index is on-chip SRAM), "less than 30GB/s mainly for loading reads"
// (§7.2).
func GenAxConfig() Config {
	return Config{
		Channels:        2,
		ChannelGBs:      ddr4ChannelGBs,
		CapacityGB:      8,
		Utilization:     0.65,
		AccessEnergyPJb: ddr4AccessPJb,
		BackgroundWGB:   ddr4BackgroundWGB,
		PHYW:            1.798,
		RandLatencyNS:   ddr4RandLatNS,
	}
}

// PeakGBs returns the aggregate peak bandwidth.
func (c Config) PeakGBs() float64 { return float64(c.Channels) * c.ChannelGBs }

// EffectiveGBs returns the average achievable bandwidth.
func (c Config) EffectiveGBs() float64 { return c.PeakGBs() * c.Utilization }

// TransferSeconds returns the time to move the given bytes at the
// effective bandwidth.
func (c Config) TransferSeconds(bytes int64) float64 {
	if bytes <= 0 {
		return 0
	}
	return float64(bytes) / (c.EffectiveGBs() * 1e9)
}

// RandAccessSeconds returns the time for n dependent random accesses.
func (c Config) RandAccessSeconds(n int64) float64 {
	return float64(n) * c.RandLatencyNS * 1e-9
}

// Traffic accumulates DRAM activity during a simulation.
type Traffic struct {
	cfg            Config
	BytesRead      int64
	RandomAccesses int64 // dependent random accesses (latency-bound)
}

// NewTraffic returns a traffic accumulator for cfg.
func NewTraffic(cfg Config) *Traffic { return &Traffic{cfg: cfg} }

// Config returns the subsystem configuration.
func (t *Traffic) Config() Config { return t.cfg }

// Read charges a sequential read of n bytes.
func (t *Traffic) Read(n int64) { t.BytesRead += n }

// RandomRead charges one dependent random access of n bytes.
func (t *Traffic) RandomRead(n int64) {
	t.BytesRead += n
	t.RandomAccesses++
}

// DynamicJ returns the dynamic transfer energy in joules.
func (t *Traffic) DynamicJ() float64 {
	return float64(t.BytesRead) * 8 * t.cfg.AccessEnergyPJb * 1e-12
}

// BackgroundW returns the standby+refresh power of the installed capacity.
func (t *Traffic) BackgroundW() float64 { return t.cfg.CapacityGB * t.cfg.BackgroundWGB }

// PowerW returns average DRAM power (dynamic + background + PHY) over a
// simulated interval.
func (t *Traffic) PowerW(seconds float64) float64 {
	if seconds <= 0 {
		return t.BackgroundW() + t.cfg.PHYW
	}
	return t.DynamicJ()/seconds + t.BackgroundW() + t.cfg.PHYW
}

// BandwidthGBs returns the average bandwidth used over the interval.
func (t *Traffic) BandwidthGBs(seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return float64(t.BytesRead) / 1e9 / seconds
}

// MinSeconds returns the minimum time the recorded traffic needs: the
// larger of the bandwidth-limited streaming time and the latency-limited
// random access time. Simulators use this as the DRAM-side bound on
// throughput.
func (t *Traffic) MinSeconds() float64 {
	stream := t.cfg.TransferSeconds(t.BytesRead)
	random := t.cfg.RandAccessSeconds(t.RandomAccesses)
	if random > stream {
		return random
	}
	return stream
}
