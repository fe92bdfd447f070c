package dram

import (
	"math"
	"testing"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestCASAConfigBandwidth(t *testing.T) {
	c := CASAConfig()
	if got := c.PeakGBs(); !approx(got, 38.4, 1e-9) {
		t.Errorf("peak = %g, want 38.4", got)
	}
	// Paper: "delivering an average bandwidth of 25GB/s" and "less than
	// 30GB/s DRAM bandwidth".
	eff := c.EffectiveGBs()
	if eff < 23 || eff > 30 {
		t.Errorf("effective bandwidth %g outside the paper's 25-30 GB/s envelope", eff)
	}
}

func TestERTConfigPower(t *testing.T) {
	// §2.2: ERT's 64GB DDR4 at ~68 GB/s draws more than 15 W.
	tr := NewTraffic(ERTConfig())
	seconds := 1.0
	tr.Read(int64(tr.Config().EffectiveGBs() * 1e9 * seconds))
	if p := tr.PowerW(seconds); p < 15 {
		t.Errorf("ERT DRAM power = %.2f W, paper says > 15 W", p)
	}
	if eff := tr.Config().EffectiveGBs(); eff < 60 || eff > 80 {
		t.Errorf("ERT effective bandwidth %g, want ~68 GB/s", eff)
	}
}

func TestCASAPowerMatchesTable4Scale(t *testing.T) {
	// Table 4: DDR4 total 3.604 W + PHY 1.798 W when streaming reads at
	// ~25 GB/s. Our model should land in that neighbourhood.
	tr := NewTraffic(CASAConfig())
	seconds := 1.0
	tr.Read(int64(25e9 * seconds))
	p := tr.PowerW(seconds)
	if p < 3 || p > 9 {
		t.Errorf("CASA DRAM+PHY power = %.2f W, want within a factor of ~1.6 of 5.4 W", p)
	}
}

func TestTransferSeconds(t *testing.T) {
	c := Config{Channels: 1, ChannelGBs: 10, Utilization: 0.5}
	if got := c.TransferSeconds(5e9); !approx(got, 1.0, 1e-9) {
		t.Errorf("TransferSeconds = %g, want 1.0", got)
	}
	if c.TransferSeconds(0) != 0 || c.TransferSeconds(-5) != 0 {
		t.Error("non-positive bytes must take zero time")
	}
}

func TestRandAccessSeconds(t *testing.T) {
	c := Config{RandLatencyNS: 100}
	if got := c.RandAccessSeconds(1e6); !approx(got, 0.1, 1e-12) {
		t.Errorf("RandAccessSeconds = %g, want 0.1", got)
	}
}

func TestTrafficAccounting(t *testing.T) {
	tr := NewTraffic(Config{AccessEnergyPJb: 10})
	tr.Read(1000)
	tr.RandomRead(64)
	if tr.BytesRead != 1064 {
		t.Errorf("BytesRead = %d", tr.BytesRead)
	}
	if tr.RandomAccesses != 1 {
		t.Errorf("RandomAccesses = %d", tr.RandomAccesses)
	}
	wantJ := 1064 * 8 * 10e-12
	if !approx(tr.DynamicJ(), wantJ, 1e-15) {
		t.Errorf("DynamicJ = %g, want %g", tr.DynamicJ(), wantJ)
	}
}

func TestMinSecondsPicksBindingConstraint(t *testing.T) {
	cfg := Config{Channels: 1, ChannelGBs: 10, Utilization: 1, RandLatencyNS: 100}
	// Stream-bound: lots of bytes, no random accesses.
	tr := NewTraffic(cfg)
	tr.Read(10e9)
	if got := tr.MinSeconds(); !approx(got, 1.0, 1e-9) {
		t.Errorf("stream-bound MinSeconds = %g", got)
	}
	// Latency-bound: tiny transfers but many dependent accesses.
	tr2 := NewTraffic(cfg)
	for i := 0; i < 1e6; i++ {
		tr2.RandomRead(8)
	}
	if got, want := tr2.MinSeconds(), 0.1; !approx(got, want, 1e-6) {
		t.Errorf("latency-bound MinSeconds = %g, want %g", got, want)
	}
}

func TestBandwidthGBs(t *testing.T) {
	tr := NewTraffic(CASAConfig())
	tr.Read(50e9)
	if got := tr.BandwidthGBs(2); !approx(got, 25, 1e-9) {
		t.Errorf("BandwidthGBs = %g, want 25", got)
	}
	if tr.BandwidthGBs(0) != 0 {
		t.Error("zero-time bandwidth must be 0")
	}
}

func TestPowerWZeroSeconds(t *testing.T) {
	tr := NewTraffic(CASAConfig())
	if p := tr.PowerW(0); p <= 0 {
		t.Errorf("idle power must still include background+PHY, got %g", p)
	}
}

func TestGenAxConfigStreamsOnly(t *testing.T) {
	// GenAx, like CASA, must stay under 30 GB/s (§7.2).
	if eff := GenAxConfig().EffectiveGBs(); eff >= 30 {
		t.Errorf("GenAx effective bandwidth %g >= 30", eff)
	}
}
