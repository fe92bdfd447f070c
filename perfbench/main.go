// Command perfbench is the repository's end-to-end benchmark. It drives the
// shipped casa-smem and casa-align binaries and the internal/serve package
// from outside, from input bytes to output bytes, on one of three
// workloads, and prints one JSON result line whose metrics are declared in
// BENCHMARK.json. With -trace 1 it instead replays each layer's public calls
// from its own code and prints the per-layer metrics. See README.md.
//
// Usage (from the repository root, through the launcher that builds it):
//
//	bash perfbench/run.sh --workload seed-bulk --seed 1 --seconds 15 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// workload is one benchmark input set and the way it is driven.
type workload struct {
	seedWorkers int // seeding workers of the program under test
	connections int // load-generator connections
	run         func(ctx context.Context, e env) (outcome, error)
	traced      func(ctx context.Context, e env) (outcome, error)
}

var workloads = map[string]workload{
	"seed-bulk":     {seedWorkers: 1, run: bulkRun, traced: bulkTraced},
	"serve-sharded": {seedWorkers: serveWorkers, connections: 1, run: serveRun, traced: serveTraced},
	"align-paired":  {seedWorkers: alignWorkers, run: alignRun, traced: alignTraced},
}

// bins are the executables a run uses, built from the tree under test.
type bins struct{ gen, index, smem, align, self string }

// env is what a workload run gets.
type env struct {
	b       bins
	in      inputs
	seconds time.Duration
}

// outcome is a workload run's verdict and metrics.
type outcome struct {
	correct bool
	t       tally
	metrics map[string]metric
}

func (o *outcome) set(name string, v float64, unit string) {
	if o.metrics == nil {
		o.metrics = map[string]metric{}
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: seed-bulk, serve-sharded or align-paired")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 15, "measured seconds per run")
		traced  = flag.Int("trace", 0, "1 = per-layer traced run")
		root    = flag.String("root", ".", "repository checkout root")
		mode    = flag.String("mode", "", "internal: \"expect\" writes the expected SMEMs of -reads against -ref to -out")
		refPath = flag.String("ref", "", "internal: reference FASTA for -mode expect")
		reads   = flag.String("reads", "", "internal: reads FASTQ for -mode expect")
		outPath = flag.String("out", "", "internal: output path for -mode expect")
	)
	flag.Parse()
	if *mode == "expect" {
		if err := writeExpected(*refPath, *reads, *outPath); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	res, err := run(ctx, *root, *name, *seed, time.Duration(*seconds)*time.Second, *traced == 1)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(ctx context.Context, root, name string, seed int64, seconds time.Duration, traced bool) (result, error) {
	sp, err := readSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return result{}, err
	}
	w, ok := workloads[name]
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q", name)
	}
	if seconds <= 0 {
		return result{}, fmt.Errorf("-seconds must be positive")
	}
	// Threads beyond the cores make the numbers measure the scheduler.
	nproc := runtime.NumCPU()
	if w.seedWorkers+w.connections > nproc {
		return result{}, fmt.Errorf("%s needs %d seeding workers + %d generator connections, more than the %d CPUs here",
			name, w.seedWorkers, w.connections, nproc)
	}
	bin := filepath.Join(root, ".bench_build", "bin")
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	e := env{
		b: bins{
			gen: filepath.Join(bin, "casa-gen"), index: filepath.Join(bin, "casa-index"),
			smem: filepath.Join(bin, "casa-smem"), align: filepath.Join(bin, "casa-align"), self: self,
		},
		in:      newInputs(root, seed),
		seconds: seconds,
	}
	if err := prepare(ctx, e.b, e.in, seed, name); err != nil {
		return result{}, fmt.Errorf("preparing inputs: %w", err)
	}

	before := canaryMS()
	fn, declared := w.run, sp.EndToEnd
	if traced {
		fn, declared = w.traced, sp.PerLayer
	}
	o, err := fn(ctx, e)
	if err != nil {
		return result{}, err
	}
	after := canaryMS()
	if traced {
		o.set("host.canary_ms", (before+after)/2, "ms")
		// A layer the workload does not pass through did no work.
		for _, d := range declared {
			if _, ok := o.metrics[d.Name]; !ok {
				o.set(d.Name, 0, d.Unit)
			}
		}
	}
	host, _ := json.Marshal(map[string]any{
		"workload": name, "seed": seed, "trace": traced,
		"nproc": nproc, "gomaxprocs": runtime.GOMAXPROCS(0),
		"seed_workers": w.seedWorkers, "gen_connections": w.connections,
		"canary_ms_before": before, "canary_ms_after": after,
	})
	fmt.Printf("# host %s\n", host)
	if err := validate(o.metrics, declared); err != nil {
		return result{}, err
	}
	return result{Correct: o.correct, Attempted: o.t.attempted, Failed: o.t.failed, Metrics: o.metrics}, nil
}

// canarySink keeps the canary loop from being optimized away.
var canarySink uint64

// canaryMS times a fixed CPU-only loop. It does not depend on the program
// under test, so a change in it between runs is machine drift.
func canaryMS() float64 {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 30_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	canarySink = x
	return ms(time.Since(start))
}

func ms(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }
func sec(d time.Duration) float64 { return d.Seconds() }
