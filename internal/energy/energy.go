// Package energy encodes the paper's 28 nm circuit models (Table 3) and
// provides the power/area accounting used to produce Table 4 and Fig 13.
//
// The paper obtains these numbers from the TSMC memory compiler, a
// silicon-verified CAM design [68], and Design Compiler synthesis; here the
// published constants are the model (see DESIGN.md's substitution table).
// Simulators report per-component *event counts* (array accesses, CAM
// searches, DRAM bytes); this package converts counts into joules and
// watts: dynamic energy = events x per-access energy, leakage power =
// leakage current x supply voltage, power = dynamic/time + leakage.
package energy

import (
	"fmt"
	"sort"
	"strings"
)

// VDD is the 28 nm nominal supply voltage in volts, used to convert the
// leakage currents of Table 3 into leakage power.
const VDD = 0.9

// ArrayModel is one row of Table 3: a memory macro characterized in the
// TSMC 28 nm process.
type ArrayModel struct {
	Name     string
	Rows     int
	Bits     int     // word width in bits
	DelayPS  float64 // access time, picoseconds
	AreaUM2  float64 // macro area, square micrometers
	EnergyPJ float64 // dynamic energy per access, picojoules
	LeakUA   float64 // leakage current, microamps
}

// LeakageW returns the macro's leakage power in watts.
func (m ArrayModel) LeakageW() float64 { return m.LeakUA * 1e-6 * VDD }

// KBits returns the macro capacity in kilobits.
func (m ArrayModel) KBits() float64 { return float64(m.Rows*m.Bits) / 1024 }

// Table 3 of the paper: circuit models in 28 nm.
var (
	// SRAM256x24 backs the mini index table ports (256 x 24 bit banks).
	SRAM256x24 = ArrayModel{Name: "6T SRAM 256x24", Rows: 256, Bits: 24,
		DelayPS: 424, AreaUM2: 2535, EnergyPJ: 2.33, LeakUA: 6.29}
	// SRAM256x60 backs the data array storing 60-bit search indicators.
	SRAM256x60 = ArrayModel{Name: "6T SRAM 256x60", Rows: 256, Bits: 60,
		DelayPS: 444, AreaUM2: 5563, EnergyPJ: 4.89, LeakUA: 14.18}
	// SRAM256x256 is the wide macro used for buffers and baseline SRAMs.
	SRAM256x256 = ArrayModel{Name: "6T SRAM 256x256", Rows: 256, Bits: 256,
		DelayPS: 548, AreaUM2: 22046, EnergyPJ: 20.92, LeakUA: 38.198}
	// BCAM256x72 is the silicon-verified 10T binary CAM macro backing the
	// 9-mer tag array (four 18-bit 9-mers share one 72-bit word, §5).
	BCAM256x72 = ArrayModel{Name: "10T BCAM 256x72", Rows: 256, Bits: 72,
		DelayPS: 495, AreaUM2: 18056, EnergyPJ: 17.60, LeakUA: 18.69}
)

// BCAM256x80 is the SMEM computing CAM macro (80-bit words = 40 bases).
// Not in Table 3; scaled linearly in width from the characterized 256x72
// macro, the same first-order scaling the paper applies when customizing
// CAM arrays from [68].
var BCAM256x80 = ScaleWidth(BCAM256x72, 80)

// ScaleWidth returns a copy of m rescaled to a new word width, scaling
// area, energy and leakage linearly with bit count (delay unchanged; CAM
// match time is set by the match-line, not the word width, to first
// order).
func ScaleWidth(m ArrayModel, bits int) ArrayModel {
	f := float64(bits) / float64(m.Bits)
	m.Name = fmt.Sprintf("%s scaled to %d bits", m.Name, bits)
	m.Bits = bits
	m.AreaUM2 *= f
	m.EnergyPJ *= f
	m.LeakUA *= f
	return m
}

// CircuitTable returns Table 3 rows in paper order, for table regeneration.
func CircuitTable() []ArrayModel {
	return []ArrayModel{SRAM256x24, SRAM256x60, SRAM256x256, BCAM256x72}
}

// Component accumulates the activity of one named hardware block.
type Component struct {
	Name      string
	DynamicPJ float64 // accumulated dynamic energy, picojoules
	LeakageW  float64 // static power, watts
	AreaMM2   float64 // silicon area, square millimeters
	Events    int64   // number of charged events (accesses/searches)
}

// Meter aggregates component activity over a simulated interval.
type Meter struct {
	components map[string]*Component
	order      []string
}

// NewMeter returns an empty meter.
func NewMeter() *Meter {
	return &Meter{components: make(map[string]*Component)}
}

// Register declares a component with its static properties. Registering
// the same name twice accumulates leakage and area (e.g. per-bank
// registration).
func (m *Meter) Register(name string, leakageW, areaMM2 float64) {
	c := m.component(name)
	c.LeakageW += leakageW
	c.AreaMM2 += areaMM2
}

// RegisterArrays declares n instances of a Table 3 macro under name.
func (m *Meter) RegisterArrays(name string, model ArrayModel, n int) {
	m.Register(name, model.LeakageW()*float64(n), model.AreaUM2*float64(n)/1e6)
}

// Charge adds events dynamic events of energyPJ picojoules each.
func (m *Meter) Charge(name string, events int64, energyPJ float64) {
	c := m.component(name)
	c.DynamicPJ += float64(events) * energyPJ
	c.Events += events
}

// ChargeJ adds raw dynamic energy in joules (for non-array components such
// as DRAM transfers).
func (m *Meter) ChargeJ(name string, joules float64) {
	c := m.component(name)
	c.DynamicPJ += joules * 1e12
	c.Events++
}

func (m *Meter) component(name string) *Component {
	if c, ok := m.components[name]; ok {
		return c
	}
	c := &Component{Name: name}
	m.components[name] = c
	m.order = append(m.order, name)
	return c
}

// Component returns a snapshot of the named component (zero value if it
// was never touched).
func (m *Meter) Component(name string) Component {
	if c, ok := m.components[name]; ok {
		return *c
	}
	return Component{Name: name}
}

// Components returns snapshots in registration order.
func (m *Meter) Components() []Component {
	out := make([]Component, 0, len(m.order))
	for _, n := range m.order {
		out = append(out, *m.components[n])
	}
	return out
}

// Report converts accumulated activity over a simulated duration into a
// power/energy report.
type Report struct {
	Seconds    float64
	Components []Component
}

// Report builds the report for a simulated interval of the given seconds.
func (m *Meter) Report(seconds float64) Report {
	return Report{Seconds: seconds, Components: m.Components()}
}

// DynamicJ returns total dynamic energy in joules.
func (r Report) DynamicJ() float64 {
	var pj float64
	for _, c := range r.Components {
		pj += c.DynamicPJ
	}
	return pj * 1e-12
}

// LeakageW returns total leakage power in watts.
func (r Report) LeakageW() float64 {
	var w float64
	for _, c := range r.Components {
		w += c.LeakageW
	}
	return w
}

// TotalJ returns total energy (dynamic + leakage x time) in joules.
func (r Report) TotalJ() float64 { return r.DynamicJ() + r.LeakageW()*r.Seconds }

// PowerW returns average total power in watts over the interval.
func (r Report) PowerW() float64 {
	if r.Seconds <= 0 {
		return 0
	}
	return r.TotalJ() / r.Seconds
}

// ComponentPowerW returns the average power of one component.
func (r Report) ComponentPowerW(name string) float64 {
	for _, c := range r.Components {
		if c.Name == name {
			return r.powerW(c)
		}
	}
	return 0
}

// powerW returns c's average power (dynamic + leakage) over the interval.
func (r Report) powerW(c Component) float64 {
	if r.Seconds <= 0 {
		return 0
	}
	return c.DynamicPJ*1e-12/r.Seconds + c.LeakageW
}

// AreaMM2 returns total registered area.
func (r Report) AreaMM2() float64 {
	var a float64
	for _, c := range r.Components {
		a += c.AreaMM2
	}
	return a
}

// String renders a Table 4-style breakdown (area and power per component).
func (r Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-36s %12s %12s\n", "Component", "area(mm2)", "power(W)")
	comps := append([]Component(nil), r.Components...)
	sort.Slice(comps, func(i, j int) bool { return comps[i].Name < comps[j].Name })
	for _, c := range comps {
		fmt.Fprintf(&sb, "%-36s %12.3f %12.3f\n", c.Name, c.AreaMM2, r.powerW(c))
	}
	fmt.Fprintf(&sb, "%-36s %12.3f %12.3f\n", "TOTAL", r.AreaMM2(), r.PowerW())
	return sb.String()
}

// PaperTable4 lists the paper's published breakdown for cross-reference in
// EXPERIMENTS.md and the table-regeneration command.
type PaperRow struct {
	Component string
	DelayPS   float64 // 0 when not applicable
	AreaMM2   float64 // 0 when not applicable
	PowerW    float64
}

// PaperTable4 returns Table 4 exactly as published.
func PaperTable4() []PaperRow {
	return []PaperRow{
		{"Pre-seeding controller", 490, 13.764, 4.102},
		{"Computing controllers (total)", 480, 4.049, 0.354},
		{"Pre-seeding filter table (45MB)", 0, 188.411, 7.166},
		{"Computing CAMs (10MB)", 0, 90.329, 6.949},
		{"DDR4 (total)", 0, 0, 3.604},
		{"DRAM controller PHY", 0, 0, 1.798},
	}
}

// PaperTotalAreaMM2 is CASA's published total die area at 28 nm.
const PaperTotalAreaMM2 = 296.553

// GenAxAreaMM2 is GenAx's published area, the +33.9% comparison point.
const GenAxAreaMM2 = 220.544
