package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"casa/internal/batch"
	"casa/internal/dna"
	"casa/internal/engine"
	"casa/internal/metrics"
	"casa/internal/trace"
)

// minRepeats is the fewest program invocations (or set-ups) a run
// takes the median of, however short -seconds is.
const minRepeats = 3

// bulkOnce runs casa-smem once over the bulk reads at one worker, printing
// every read's SMEMs (checked read by read) and the metrics exposition
// (checked for determinism). Set-up is the index load, timed by casa-smem's
// own wall profile around its single engine.LoadIndex call.
func bulkOnce(ctx context.Context, e env) (cliRun, time.Duration, error) {
	wall := filepath.Join(e.in.dir, "casa-smem.wall.json")
	run, err := runCLI(ctx, e.b.smem, []string{
		"-index", e.in.casaIdx, "-reads", e.in.bulk, "-workers", "1", "-max-reads", "0",
		"-metrics", "-walltrace", wall,
	}, "")
	if err != nil {
		return run, 0, err
	}
	spans, _, err := trace.ParseWallFile(wall)
	if err != nil {
		return run, 0, err
	}
	for _, s := range spans {
		if s.Proc == "casa-smem" && s.Name == "build" {
			return run, time.Duration(s.Dur) * time.Microsecond, nil
		}
	}
	return run, 0, fmt.Errorf("casa-smem wall profile has no build phase")
}

// modelLines returns the casa_* samples of a metrics text exposition: the
// engine's counters and model gauges, which must repeat exactly.
func modelLines(exposition []byte) []string {
	var out []string
	for _, line := range strings.Split(string(exposition), "\n") {
		if strings.HasPrefix(line, "casa_") {
			out = append(out, line)
		}
	}
	return out
}

// bulkCheck compares casa-smem's per-read output with the flat fmindex
// answers. A read may differ only in the way the paper's exact-match
// prepass allows: its reverse complement occurs in the reference, and casa
// retires its forward strand as empty. Any other difference makes the run
// incorrect.
func bulkCheck(stdout []byte, want []expectation) (reads, matching int, explained bool, err error) {
	explained = true
	for _, line := range strings.Split(string(stdout), "\n") {
		fields := strings.Split(line, "\t")
		if len(fields) < 2 {
			continue
		}
		i, ok := simIndex(fields[0])
		if !ok || i >= len(want) {
			return 0, 0, false, fmt.Errorf("unexpected casa-smem line %q", line)
		}
		got := make([]smemT, 0, len(fields)-2)
		for _, f := range fields[2:] {
			var m smemT
			if _, err := fmt.Sscanf(f, "[%d,%d]x%d", &m.start, &m.end, &m.hits); err != nil {
				return 0, 0, false, fmt.Errorf("casa-smem SMEM %q: %w", f, err)
			}
			got = append(got, m)
		}
		reads++
		if sameSMEMs(got, want[i].smems, false) {
			matching++
			continue
		}
		if len(got) > 0 || !want[i].rcExact {
			explained = false
		}
	}
	return reads, matching, explained, nil
}

func bulkRun(ctx context.Context, e env) (outcome, error) {
	var o outcome
	want, err := loadExpected(e.in.expected)
	if err != nil {
		return o, err
	}
	var setups, rates, rss []float64
	var lat [][]float64
	var first []string
	var firstOut [32]byte
	o.correct = true
	start := time.Now()
	for i := 0; i < minRepeats || time.Since(start) < e.seconds; i++ {
		run, setup, err := bulkOnce(ctx, e)
		if err != nil {
			return o, err
		}
		model := modelLines(run.stderr)
		sum := sha256.Sum256(run.stdout)
		if i == 0 {
			first, firstOut = model, sum
		} else if strings.Join(model, "\n") != strings.Join(first, "\n") || sum != firstOut {
			return o, fmt.Errorf("casa-smem output or casa/* metrics differ between repetitions of one run")
		}
		reads, matching, explained, err := bulkCheck(run.stdout, want)
		if err != nil {
			return o, err
		}
		o.t.add(reads, false)
		o.t.add(len(want)-reads, true)
		o.correct = o.correct && explained
		o.set("correct_frac", float64(matching)/float64(len(want)), "frac")
		setups = append(setups, sec(setup))
		rates = append(rates, float64(reads)/sec(run.lastByte-setup))
		rss = append(rss, run.maxRSSMiB)
		var perRead []float64
		lines := bytes.Split(run.stdout, []byte("\n"))
		for j, at := range run.lineAt {
			if bytes.IndexByte(lines[j], '\t') >= 0 {
				perRead = append(perRead, ms(at))
			}
		}
		lat = append(lat, perRead)
	}
	o.set("setup_s", median(setups), "s")
	o.set("reads_per_s", median(rates), "reads/s")
	o.set("mem_mib", median(rss), "MiB")
	o.set("ok_frac", o.t.okFrac(), "frac")
	return o, setLatency(&o, lat)
}

// e2eTail is the highest latency percentile the end-to-end metrics report.
// On a shared 2-CPU host the p99 of identical serve-sharded runs ranged
// 12-56 ms: it counts the host's 30 ms stalls, of which a 15-20 s run sees
// zero to three. p90 stays within 15% of its median.
const e2eTail = 900

// setLatency sets the median and tail latency in ms. Each group is one
// program invocation's (or one serving window's) samples; a group's
// percentiles are taken over its own samples and the run reports their
// median over the groups, like its other per-invocation metrics. The tail
// is the highest percentile, up to e2eTail, with ten samples beyond it in
// every group; a run too short for e2eTail names the one it reports.
func setLatency(o *outcome, groups [][]float64) error {
	n := len(groups[0])
	for _, g := range groups {
		n = min(n, len(g))
	}
	p, ok := tailPermille(n, e2eTail)
	if !ok {
		return fmt.Errorf("only %d latency samples", n)
	}
	var p50, tail []float64
	for _, g := range groups {
		p50 = append(p50, percentile(g, 500))
		tail = append(tail, percentile(g, p))
	}
	o.set("latency_p50_ms", median(p50), "ms")
	o.set(percentileName("latency", p, "_ms"), median(tail), "ms")
	return nil
}

func bulkTraced(ctx context.Context, e env) (outcome, error) {
	var o outcome
	ref, _, err := bulkOnce(ctx, e)
	if err != nil {
		return o, err
	}
	cliModel := modelLines(ref.stderr)

	heap, err := heapOfLoad(e.in.casaIdx)
	if err != nil {
		return o, err
	}
	o.set("idxio.heap_mib", heap, "MiB")

	// The replay: casa-smem's calls, in its order, each timed.
	s := spans{}
	t0 := time.Now()
	t := t0
	reads, names, err := readFastq(e.in.bulk)
	s.since("seqio", t)
	if err != nil {
		return o, err
	}
	t = time.Now()
	eng, err := loadIndex(e.in.casaIdx)
	s.since("idxio", t)
	if err != nil {
		return o, err
	}
	reg := metrics.New()
	wall := trace.NewWall(0)
	t = time.Now()
	got := eng.SMEMs(batch.SeedEngine(eng, reads, batch.Options{Workers: 1, Metrics: reg, Wall: wall}))
	s.since("batch", t)
	out := sha256.New()
	t = time.Now()
	bw := bufio.NewWriter(out)
	total := 0
	for i, set := range got {
		total += len(set)
		fmt.Fprintf(bw, "%s\t%d SMEMs", names[i], len(set))
		for _, m := range set {
			fmt.Fprintf(bw, "\t%s", m)
		}
		fmt.Fprintln(bw)
	}
	fmt.Fprintf(bw, "\n%d reads, %d SMEMs via %s\n", len(got), total, eng.Name())
	if err := bw.Flush(); err != nil {
		return o, err
	}
	s.since("output", t)
	replay := time.Since(t0)
	refSum := sha256.Sum256(ref.stdout)
	if !bytes.Equal(out.Sum(nil), refSum[:]) {
		return o, fmt.Errorf("the traced replay's output differs from casa-smem's")
	}
	var exp bytes.Buffer
	if err := reg.WriteText(&exp); err != nil {
		return o, err
	}
	if strings.Join(modelLines(exp.Bytes()), "\n") != strings.Join(cliModel, "\n") {
		return o, fmt.Errorf("the traced replay's casa/* metrics differ from casa-smem's")
	}

	o.correct = true
	o.t.add(len(reads), false)
	busy, err := poolStats(&o, wall, 1, 1, s["batch"])
	if err != nil {
		return o, err
	}
	o.set("core.seed_s", sec(busy), "s")
	o.set("core.us_per_read", float64(busy)/float64(time.Microsecond)/float64(len(reads)), "us")
	if err := setCoreCounters(&o, reg); err != nil {
		return o, err
	}
	allocs, err := allocsPerRead(eng, reads)
	if err != nil {
		return o, err
	}
	o.set("core.allocs_per_read", allocs, "count")
	o.set("seqio.parse_s", sec(s["seqio"]), "s")
	o.set("seqio.mib_per_s", fileMiB(e.in.bulk)/sec(s["seqio"]), "MiB/s")
	o.set("idxio.load_s", sec(s["idxio"]), "s")
	o.set("idxio.load_mib_per_s", fileMiB(e.in.casaIdx)/sec(s["idxio"]), "MiB/s")
	o.set("cli.output_s", sec(s["output"]), "s")
	o.set("trace.overhead_frac", sec(replay)/sec(ref.exited)-1, "frac")
	return o, setUnattributed(&o, s, replay)
}

// setCoreCounters derives the casa model ratios from a seeding registry.
func setCoreCounters(o *outcome, reg *metrics.Registry) error {
	c := func(name string) float64 { return float64(reg.Counter(name).Value()) }
	seeded := c("casa/reads/seeded")
	if seeded == 0 || c("casa/pivots/total") == 0 {
		return fmt.Errorf("casa seeded no reads")
	}
	filtered := c("casa/pivots/filtered_table") + c("casa/pivots/filtered_crkm") + c("casa/pivots/filtered_align")
	o.set("core.pivots_filtered_frac", filtered/c("casa/pivots/total"), "frac")
	o.set("core.cam_searches_per_read", c("casa/smem/cam_searches")/seeded, "count")
	o.set("core.exact_frac", c("casa/reads/exact")/seeded, "frac")
	o.set("core.model_mreads_per_s", reg.Gauge("casa/model/throughput_reads_per_s").Value()/1e6, "Mreads/s")
	o.set("core.model_reads_per_mj", reg.Gauge("casa/model/reads_per_mj").Value(), "reads/mJ")
	return nil
}

// allocsPerRead counts heap allocations per read on the engine's
// steady-state single-read path, after a warm-up.
func allocsPerRead(eng engine.Engine, reads []dna.Sequence) (float64, error) {
	rs, ok := eng.Clone().(engine.ReadSeeder)
	if !ok {
		return 0, fmt.Errorf("%s has no single-read path", eng.Name())
	}
	var dst engine.Seeds
	n := min(len(reads), 2000)
	for _, r := range reads[:n] {
		rs.SeedReadInto(&dst, r)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, r := range reads[:n] {
		rs.SeedReadInto(&dst, r)
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n), nil
}
