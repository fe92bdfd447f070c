// Command casa-bench answers one question: did the modelled hardware
// change, or did an engine's host seeding path collapse? It writes a
// machine-readable BENCH_seeding.json (schema casa-bench/v1): for every
// engine and worker-pool size, the host wall-clock throughput of the
// simulation plus the engine's modelled seconds, cycles and throughput.
// `make bench` drives it; CI runs `-scale quick` and then `-validate` to
// keep the schema honest. Host set-up (index build and load, input
// parsing) and end-to-end timings belong to perfbench, not here.
//
// -compare is the regression gate: the run's (or a given file's) model
// numbers are checked against a committed baseline and the process exits
// non-zero when modelled seconds, cycles or throughput regress beyond
// -threshold. Host throughput gets its own, much more generous floor
// (-host-threshold, default 0.5): the run fails only when an engine's
// host reads/s drop below half the baseline's, loose enough for CI-runner
// noise but tight enough to catch an accidental 10× host-path regression.
// `make bench-quick` gates against bench/baseline-quick.json.
//
// Each host row is the median of hostSamples samples; a sample repeats
// the batch, doubling the repeat count until it runs for at least
// minSampleTime, and records the per-batch wall time. A best-of over a
// few millisecond-scale batches mostly measures cache state and
// scheduling luck; samples long enough to amortise both, kept beside
// their median, also show how far to trust the row. Rows asking for more
// workers than GOMAXPROCS are skipped: they would time the scheduler, not
// the pool. Model numbers are computed once per engine (the determinism
// contract makes them identical at every worker count).
//
// Usage:
//
//	casa-bench [-scale quick|default] [-workers 1,2,4,8] [-out BENCH_seeding.json]
//	casa-bench -validate BENCH_seeding.json
//	casa-bench -compare bench/baseline-quick.json [-threshold 0.10] [-host-threshold 0.5] BENCH_seeding.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"casa/internal/batch"
	"casa/internal/buildinfo"
	"casa/internal/dna"
	"casa/internal/engine"
	"casa/internal/readsim"
	_ "casa/internal/shard" // registers the sharded:<name> composites
)

// benchSchema identifies the document layout.
const benchSchema = "casa-bench/v1"

// Steady host rows: the median of hostSamples samples, each at least
// minSampleTime of back-to-back batches.
const (
	hostSamples   = 5
	minSampleTime = 50 * time.Millisecond
)

type workload struct {
	RefBases int `json:"ref_bases"`
	Reads    int `json:"reads"`
	ReadLen  int `json:"read_len"`
	MinSMEM  int `json:"min_smem"`
}

// row is one engine × worker-count measurement. Host numbers measure the
// simulator on this machine; model numbers are the simulated hardware's
// and are identical at every worker count (the determinism contract).
type row struct {
	Engine        string  `json:"engine"`
	Workers       int     `json:"workers"`
	HostSeconds   float64 `json:"host_seconds"`
	HostReadsPerS float64 `json:"host_reads_per_s"`
	// HostRepSeconds lists every sample's per-batch wall time
	// (HostSeconds is their median): the spread shows whether the machine
	// was quiet enough to trust the row. Host-side, so -compare never
	// reads it.
	HostRepSeconds []float64 `json:"host_rep_seconds,omitempty"`
	ModelSeconds   float64   `json:"model_seconds,omitempty"`
	ModelCycles    int64     `json:"model_cycles,omitempty"`
	ModelReadsPerS float64   `json:"model_reads_per_s,omitempty"`
}

// hostEnv records the machine a benchmark ran on. Host throughput is
// meaningless without it; the model numbers stay machine-independent, so
// -compare ignores every host field.
type hostEnv struct {
	GoVersion  string          `json:"go_version"`
	GOOS       string          `json:"goos"`
	GOARCH     string          `json:"goarch"`
	NumCPU     int             `json:"num_cpu"`
	GOMAXPROCS int             `json:"gomaxprocs"`
	Build      *buildinfo.Info `json:"build_info,omitempty"`
}

// currentHostEnv captures the running process's environment.
func currentHostEnv() *hostEnv {
	build := buildinfo.Current()
	return &hostEnv{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Build:      &build,
	}
}

type doc struct {
	Schema   string   `json:"schema"`
	Scale    string   `json:"scale"`
	Host     *hostEnv `json:"host,omitempty"` // absent in pre-host documents; never compared
	Workload workload `json:"workload"`
	Engines  []row    `json:"engines"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("casa-bench: ")
	var (
		scale         = flag.String("scale", "default", "workload scale: quick (CI smoke) or default")
		workers       = flag.String("workers", "1,2,4,8", "comma-separated worker-pool sizes")
		out           = flag.String("out", "BENCH_seeding.json", "output path (- = stdout)")
		validate      = flag.String("validate", "", "validate an existing benchmark file against the schema and exit")
		compare       = flag.String("compare", "", "baseline benchmark file: exit non-zero if model numbers regress beyond -threshold")
		threshold     = flag.Float64("threshold", 0.10, "allowed fractional model regression for -compare")
		hostThreshold = flag.Float64("host-threshold", 0.5, "host-throughput floor for -compare: fail below this fraction of baseline host reads/s (0 disables)")
		version       = flag.Bool("version", false, "print build info and exit")
	)
	flag.Parse()
	if *version {
		buildinfo.Print(os.Stdout, "casa-bench")
		return
	}
	if *validate != "" {
		if err := validateFile(*validate); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("casa-bench: %s is a valid %s document\n", *validate, benchSchema)
		return
	}
	if *compare != "" && flag.NArg() == 1 {
		// Gate an already-written document without re-running the bench.
		cur, err := loadDoc(flag.Arg(0))
		if err != nil {
			log.Fatal(err)
		}
		runGate(*compare, cur, *threshold, *hostThreshold)
		return
	}

	ws, err := parseWorkers(*workers)
	if err != nil {
		log.Fatal(err)
	}
	ws, skipped := rowWorkers(ws, runtime.GOMAXPROCS(0))
	for _, w := range skipped {
		log.Printf("skipping workers=%d rows: GOMAXPROCS is %d", w, runtime.GOMAXPROCS(0))
	}
	if len(ws) == 0 {
		log.Fatalf("no -workers entry fits GOMAXPROCS=%d", runtime.GOMAXPROCS(0))
	}
	d := runBench(*scale, ws)

	var w *os.File
	if *out == "-" {
		w = os.Stdout
	} else {
		w, err = os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer w.Close()
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(d); err != nil {
		log.Fatal(err)
	}
	if *out != "-" {
		log.Printf("wrote %s (%d rows)", *out, len(d.Engines))
	}
	if *compare != "" {
		runGate(*compare, d, *threshold, *hostThreshold)
	}
}

// runBench measures every registered engine at every worker count over
// the named workload scale: one steady host row per worker count, and
// model numbers from one extra run per engine.
func runBench(scale string, ws []int) doc {
	refBases, nReads := 1<<17, 1000
	if scale == "quick" {
		refBases, nReads = 1<<16, 200
	}
	ref := readsim.GenerateReference(readsim.DefaultGenome(refBases, 21))
	reads := readsim.Sequences(readsim.Simulate(ref, readsim.DefaultProfile(nReads, 22)))
	const minSMEM = 19
	d := doc{
		Schema: benchSchema,
		Scale:  scale,
		Host:   currentHostEnv(),
		Workload: workload{
			RefBases: len(ref), Reads: len(reads), ReadLen: len(reads[0]), MinSMEM: minSMEM,
		},
	}
	for _, e := range buildEngines(ref, minSMEM) {
		m := modelOf(e, batch.SeedEngine(e, reads, batch.Options{Workers: 1}))
		for _, w := range ws {
			opts := batch.Options{Workers: w}
			samples := make([]float64, hostSamples)
			n := 1
			for i := range samples {
				samples[i], n = sampleBatch(func() { batch.SeedEngine(e, reads, opts) }, n)
			}
			r := hostRow(e.Name(), w, len(reads), samples)
			r.ModelSeconds, r.ModelCycles, r.ModelReadsPerS = m.Seconds, m.Cycles, m.ReadsPerS
			d.Engines = append(d.Engines, r)
			log.Printf("%-16s workers=%d host=%.3gs (%.0f reads/s, samples %.3g..%.3gs)",
				r.Engine, w, r.HostSeconds, r.HostReadsPerS, slices.Min(samples), slices.Max(samples))
		}
	}
	return d
}

// rowWorkers splits the requested pool sizes into those that fit procs
// and those that would oversubscribe it.
func rowWorkers(ws []int, procs int) (run, skipped []int) {
	for _, w := range ws {
		if w > procs {
			skipped = append(skipped, w)
		} else {
			run = append(run, w)
		}
	}
	return run, skipped
}

// sampleBatch times one sample: run repeated n times, doubling n until
// the repeats take at least minSampleTime, as testing.Benchmark grows
// b.N (and, like it, collecting garbage first so one attempt's garbage
// is not billed to the next). It returns the per-run seconds and the n
// that reached the floor, so the row's next sample starts there instead
// of recalibrating.
func sampleBatch(run func(), n int) (float64, int) {
	for {
		runtime.GC()
		start := time.Now()
		for i := 0; i < n; i++ {
			run()
		}
		if el := time.Since(start); el >= minSampleTime {
			return el.Seconds() / float64(n), n
		}
		n *= 2
	}
}

// hostRow builds an engine × workers row from its per-batch samples: the
// median is the row's time, the samples stay in order beside it.
func hostRow(engine string, workers, reads int, samples []float64) row {
	sorted := slices.Clone(samples)
	slices.Sort(sorted)
	mid := len(sorted) / 2
	med := sorted[mid]
	if len(sorted)%2 == 0 {
		med = (sorted[mid-1] + sorted[mid]) / 2
	}
	r := row{Engine: engine, Workers: workers, HostSeconds: med, HostRepSeconds: samples}
	if med > 0 {
		r.HostReadsPerS = float64(reads) / med
	}
	return r
}

// runGate compares cur against the baseline file and exits non-zero on
// any model regression or host-throughput collapse.
func runGate(baselinePath string, cur doc, threshold, hostThreshold float64) {
	base, err := loadDoc(baselinePath)
	if err != nil {
		log.Fatal(err)
	}
	regressions, err := compareDocs(base, cur, threshold)
	if err != nil {
		log.Fatal(err)
	}
	regressions = append(regressions, compareHost(base, cur, hostThreshold)...)
	if len(regressions) > 0 {
		for _, r := range regressions {
			log.Printf("REGRESSION %s", r)
		}
		log.Fatalf("%d regression(s) vs %s (model threshold %.0f%%, host floor %.0f%%)",
			len(regressions), baselinePath, threshold*100, hostThreshold*100)
	}
	log.Printf("model numbers within %.0f%% of %s; host throughput above %.0f%% floor",
		threshold*100, baselinePath, hostThreshold*100)
}

// modelOf reads a result's simulated-hardware numbers; zero for engines
// with no hardware model (fmindex).
func modelOf(e engine.Engine, res engine.Result) engine.Model {
	if mod, ok := e.(engine.Modeler); ok {
		return mod.Model(res)
	}
	return engine.Model{}
}

// buildEngines constructs every registered engine over ref, scaled to
// bench size (small segments so multi-partition paths are exercised,
// table k-mers kept small enough for CI memory). The golden oracle is
// skipped — quadratic, validation only — so a newly registered engine is
// benchmarked automatically.
func buildEngines(ref dna.Sequence, minSMEM int) []engine.Engine {
	opt := engine.Options{
		MinSMEM:    minSMEM,
		Partition:  len(ref) / 4,
		TableK:     8,
		CacheBytes: 1 << 14,
	}
	var out []engine.Engine
	for _, f := range engine.List() {
		if f.Golden {
			continue
		}
		e, err := engine.New(f.Name, ref, opt)
		if err != nil {
			log.Fatal(err)
		}
		out = append(out, e)
	}
	return out
}

func parseWorkers(s string) ([]int, error) {
	var ws []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("casa-bench: bad -workers entry %q", f)
		}
		ws = append(ws, n)
	}
	return ws, nil
}

// validateFile checks that path holds a well-formed casa-bench/v1
// document: the right schema tag, a plausible workload, and positive
// host measurements for every engine row.
func validateFile(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var d doc
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		return fmt.Errorf("casa-bench: %s: %w", path, err)
	}
	if d.Schema != benchSchema {
		return fmt.Errorf("casa-bench: %s: schema %q, want %q", path, d.Schema, benchSchema)
	}
	if d.Workload.RefBases <= 0 || d.Workload.Reads <= 0 || d.Workload.ReadLen <= 0 {
		return fmt.Errorf("casa-bench: %s: implausible workload %+v", path, d.Workload)
	}
	if len(d.Engines) == 0 {
		return fmt.Errorf("casa-bench: %s: no engine rows", path)
	}
	seen := map[string]bool{}
	for i, r := range d.Engines {
		if r.Engine == "" || r.Workers < 1 {
			return fmt.Errorf("casa-bench: %s: row %d malformed: %+v", path, i, r)
		}
		if r.HostSeconds <= 0 || r.HostReadsPerS <= 0 {
			return fmt.Errorf("casa-bench: %s: row %d (%s workers=%d) has no host measurement", path, i, r.Engine, r.Workers)
		}
		seen[r.Engine] = true
	}
	for _, f := range engine.List() {
		if f.Golden {
			continue
		}
		if !seen[f.Name] {
			return fmt.Errorf("casa-bench: %s: engine %q missing", path, f.Name)
		}
	}
	return nil
}
