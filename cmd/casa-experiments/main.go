// Command casa-experiments regenerates the tables and figures of the CASA
// paper's evaluation (§6-§7) on synthetic workloads.
//
// Usage:
//
//	casa-experiments [-scale small|default] [-fig 5|12|13|14|15|16] [-table 3|4] [-summary] [-all]
//
// Without selection flags it runs everything (-all). Output is plain text,
// one section per artifact; EXPERIMENTS.md records a captured run.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"

	"casa/internal/buildinfo"
	"casa/internal/energy"
	"casa/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("casa-experiments: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
	_ = os.Stdout.Sync()
}

// run parses args and prints the selected artifacts to w. A malformed
// command line exits the process, as flag.Parse does.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("casa-experiments", flag.ExitOnError)
	var (
		scaleName = fs.String("scale", "default", "workload scale: small or default")
		fig       = fs.Int("fig", 0, "regenerate one figure (5, 12, 13, 14, 15, 16)")
		table     = fs.Int("table", 0, "regenerate one table (3, 4)")
		summary   = fs.Bool("summary", false, "print the headline ratio summary (§7.1/§7.2)")
		ablation  = fs.Bool("ablation", false, "run the design-choice ablation sweeps")
		all       = fs.Bool("all", false, "run every artifact")
		version   = fs.Bool("version", false, "print build info and exit")
	)
	fs.Parse(args) // ExitOnError: returns only on success
	if *version {
		buildinfo.Print(w, "casa-experiments")
		return nil
	}

	var scale experiments.Scale
	switch *scaleName {
	case "small":
		scale = experiments.SmallScale()
	case "default":
		scale = experiments.DefaultScale()
	default:
		return fmt.Errorf("unknown scale %q", *scaleName)
	}
	if *fig == 0 && *table == 0 && !*summary && !*ablation {
		*all = true
	}

	s := experiments.NewSuite(scale)
	fmt.Fprintf(w, "workloads: %d genomes x %d bases, %d reads each (seed %d)\n\n",
		len(s.Workloads), scale.GenomeBases, scale.Reads, scale.Seed)

	artifacts := []struct {
		want int
		sel  *int
		fn   func() error
	}{
		{5, fig, func() error { return fig5(w, s) }},
		{12, fig, func() error { return fig12(w, s) }},
		{13, fig, func() error { return fig13(w, s) }},
		{14, fig, func() error { return fig14(w, s) }},
		{15, fig, func() error { return fig15(w, s) }},
		{16, fig, func() error { return fig16(w, s) }},
		{3, table, func() error { return table3(w) }},
		{4, table, func() error { return table4(w, s) }},
	}
	for _, a := range artifacts {
		if *all || *a.sel == a.want {
			if err := a.fn(); err != nil {
				return fmt.Errorf("artifact %d: %w", a.want, err)
			}
		}
	}
	if *all || *summary {
		if err := printSummary(w, s); err != nil {
			return err
		}
	}
	if *all || *ablation {
		if err := printAblations(w, s); err != nil {
			return err
		}
	}
	return nil
}

func f(v float64) string { return strconv.FormatFloat(v, 'g', 4, 64) }

func fig5(w io.Writer, s *experiments.Suite) error {
	res, err := s.Fig5()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== Figure 5: hit pivots per read per partition vs k ==")
	var rows [][]string
	for _, r := range res.Rows {
		rows = append(rows, []string{strconv.Itoa(r.K), f(r.HitPivots)})
	}
	fmt.Fprint(w, experiments.RenderTable([]string{"k", "hit pivots/read/part"}, rows))
	fmt.Fprintf(w, "k=12 over k=19 ratio: %.2fx (paper: 6.04x)\n\n", res.Ratio12to19)
	return nil
}

func fig12(w io.Writer, s *experiments.Suite) error {
	all, err := s.Fig12All()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== Figure 12: seeding throughput (reads/s, paper-scale projected) ==")
	for _, res := range all {
		fmt.Fprintf(w, "-- %s --\n", res.Workload)
		var rows [][]string
		for _, e := range res.Engines {
			rows = append(rows, []string{e.Name, f(e.Throughput)})
		}
		fmt.Fprint(w, experiments.RenderTable([]string{"engine", "reads/s"}, rows))
	}
	fmt.Fprintln(w)
	return nil
}

func fig13(w io.Writer, s *experiments.Suite) error {
	res, err := s.Fig12(s.Workloads[0])
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== Figure 13: power (W) and energy efficiency (reads/mJ) ==")
	var rows [][]string
	for _, name := range []string{"CASA", "ERT", "GenAx"} {
		m := res.Metric(name)
		rows = append(rows, []string{name, f(m.PowerW), f(m.ReadsPerMJ), f(m.DRAMGBs)})
	}
	fmt.Fprint(w, experiments.RenderTable([]string{"engine", "power(W)", "reads/mJ", "DRAM GB/s"}, rows))
	fmt.Fprintln(w)
	return nil
}

func fig14(w io.Writer, s *experiments.Suite) error {
	res, err := s.Fig14(s.Workloads[0])
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== Figure 14: end-to-end normalized running time (BWA-MEM2 = 1.0) ==")
	var rows [][]string
	for _, b := range res.Breakdowns {
		rows = append(rows, []string{
			b.System, f(b.IO), f(b.Seeding), f(b.PreProcessing),
			f(b.Extension), f(b.Overlapped), f(b.PostProcessing), f(b.Total()),
		})
	}
	fmt.Fprint(w, experiments.RenderTable(
		[]string{"system", "IO", "seeding", "preproc", "extension", "seed||ext", "postproc", "total"}, rows))
	fmt.Fprintf(w, "CASA+SeedEx speedup: %.2fx over BWA-MEM2 (paper 6x), %.2fx over ERT+SeedEx (paper 2.4x), %.2fx over GenAx+SeedEx (paper 1.4x)\n\n",
		res.SpeedupVs["BWA-MEM2"], res.SpeedupVs["ERT+SeedEx"], res.SpeedupVs["GenAx+SeedEx"])
	return nil
}

func fig15(w io.Writer, s *experiments.Suite) error {
	res, err := s.Fig15()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== Figure 15: avg pivots triggering SMEM computation per read ==")
	fmt.Fprint(w, experiments.RenderTable([]string{"design", "pivots/read"}, [][]string{
		{"naive", f(res.Naive)},
		{"table", f(res.Table)},
		{"table+analysis", f(res.TableAnalysis)},
	}))
	fmt.Fprintf(w, "filter rates: table %.1f%% (paper 98.9%%), table+analysis %.1f%% (paper 99.9%%)\n\n",
		res.TableFilterRate*100, res.AnalysisFilterRate*100)
	return nil
}

func fig16(w io.Writer, s *experiments.Suite) error {
	res, err := s.Fig16()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== Figure 16: inexact-matching throughput normalized to GenAx ==")
	fmt.Fprint(w, experiments.RenderTable([]string{"engine", "normalized"}, [][]string{
		{"CASA", f(res.CASA)},
		{"ERT", f(res.ERT)},
		{"GenAx", "1"},
	}))
	fmt.Fprintf(w, "CASA vs GenAx: %.2fx (paper 3.86x); CASA vs ERT: %.2fx (paper 0.72x); %d inexact reads\n\n",
		res.CASA, res.CASAOverERT, res.InexactReads)
	return nil
}

func table3(w io.Writer) error {
	fmt.Fprintln(w, "== Table 3: circuit models in 28 nm ==")
	var rows [][]string
	for _, m := range experiments.Table3() {
		rows = append(rows, []string{
			m.Name, f(m.DelayPS), f(m.AreaUM2), f(m.EnergyPJ), f(m.LeakUA),
			fmt.Sprintf("%dx%d", m.Rows, m.Bits),
		})
	}
	fmt.Fprint(w, experiments.RenderTable(
		[]string{"component", "delay(ps)", "area(um2)", "energy(pJ)", "leakage(uA)", "size"}, rows))
	fmt.Fprintln(w)
	return nil
}

func table4(w io.Writer, s *experiments.Suite) error {
	res, err := s.Table4()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== Table 4: power and area breakdown (model at paper geometry) ==")
	fmt.Fprint(w, res.Report.String())
	fmt.Fprintln(w, "\npaper's published rows:")
	var rows [][]string
	for _, r := range energy.PaperTable4() {
		rows = append(rows, []string{r.Component, f(r.AreaMM2), f(r.PowerW)})
	}
	fmt.Fprint(w, experiments.RenderTable([]string{"component", "area(mm2)", "power(W)"}, rows))
	fmt.Fprintf(w, "total area: %.1f mm^2 (paper %.1f); +%.1f%% vs GenAx (paper +33.9%%)\n\n",
		res.TotalArea, res.PaperArea, res.AreaVsGenAx*100)
	return nil
}

func printSummary(w io.Writer, s *experiments.Suite) error {
	sum, err := s.Summarize()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== Headline summary (§7.1/§7.2) ==")
	fmt.Fprint(w, experiments.RenderTable([]string{"metric", "measured", "paper"}, [][]string{
		{"CASA throughput vs B-12T", f(sum.CASAOverB12) + "x", "17.26x"},
		{"CASA throughput vs B-32T", f(sum.CASAOverB32) + "x", "7.53x"},
		{"CASA throughput vs GenAx", f(sum.CASAOverGenAx) + "x", "5.47x"},
		{"CASA throughput vs ERT", f(sum.CASAOverERT) + "x", "1.2x"},
		{"CASA efficiency vs GenAx", f(sum.EffOverGenAx) + "x", "6.69x"},
		{"CASA efficiency vs ERT", f(sum.EffOverERT) + "x", "2.57x"},
		{"CASA DRAM bandwidth", f(sum.CASADRAMGBs) + " GB/s", "< 30 GB/s"},
		{"exact-match read fraction", f(sum.ExactFraction*100) + "%", "~80%"},
	}))
	fmt.Fprintln(w)
	return nil
}

func printAblations(w io.Writer, s *experiments.Suite) error {
	sweeps, err := s.Ablations()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== Design-choice ablations (DESIGN.md §6) ==")
	for _, sw := range sweeps {
		fmt.Fprintf(w, "-- %s --\n", sw.Sweep)
		var rows [][]string
		for _, r := range sw.Rows {
			rows = append(rows, []string{
				r.Name, f(r.Throughput), f(r.ReadsPerMJ),
				f(float64(r.CAMRowsEnabled)), f(float64(r.PivotsComputed)), f(r.OnChipMB),
			})
		}
		fmt.Fprint(w, experiments.RenderTable(
			[]string{"config", "reads/s", "reads/mJ", "CAM rows", "pivots", "on-chip MB"}, rows))
	}
	fmt.Fprintln(w)
	return nil
}
