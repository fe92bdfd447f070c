// Package runcli is the run harness casa-smem, casa-align and casa-serve
// share: one registration of the flags they have in common, one
// resolution of -ref/-index into an engine, and one owner of the run's
// observability sidecar — the run-scoped logger, the signal context, the
// metrics registry, the cycle and wall trace recorders, the -http server,
// the stall watchdog and the progress ticker — from start to exit code.
//
// A command registers its own flags, then calls Begin with its Spec.
// Begin parses the command line, applies the -index precondition policy
// and returns a Run. The command loads its inputs, calls Start once its
// set-up is done and ends with Finish, which writes the traces and
// metrics and exits. Fatal exits on an error at any point in between and
// releases the -http listener first.
//
// casa-smem and casa-align also share one read stream: OpenReads parses
// the FASTQ (or two mate files) ahead of seeding, and Stream seeds its
// batches on the run's pool, cross-checks them with -verify and hands
// each to the command's writer (stream.go).
package runcli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"casa/internal/batch"
	"casa/internal/buildinfo"
	"casa/internal/engine"
	"casa/internal/idxio"
	"casa/internal/metrics"
	"casa/internal/obshttp"
	"casa/internal/progress"
	"casa/internal/refidx"
	"casa/internal/trace"
)

// defaultMinSMEM is -min-smem's default and the engines' shared floor.
const defaultMinSMEM = 19

// Spec describes how one command uses the shared flags.
type Spec struct {
	// Name labels the command: the -version line, error prefixes and the
	// wall-trace process of Phase.
	Name string

	// IndexBesideRef makes -ref mandatory and -index an optional
	// prebuilt index over that same reference (casa-align: extension and
	// SAM need the reference itself). Otherwise exactly one of -ref and
	// -index is given.
	IndexBesideRef bool

	// Required names the command's own flags that must be non-empty.
	Required []string

	// MinSMEM, Verify, Partition and Shards register -min-smem, -verify,
	// -partition (default PartitionDefault) and -shards/-shard-overlap.
	MinSMEM, Verify, Partition, Shards bool
	PartitionDefault                   int

	// Server marks a long-running server: SIGTERM drains as SIGINT does,
	// the logger carries pid and server_id instead of run_id and engine,
	// and the batch telemetry flags (-trace, -trace-sample, -http,
	// -progress, -stall-timeout) are absent. -walltrace names the file the
	// server's wall-clock run lifecycle trace is written to at shutdown.
	Server bool
}

// The three commands on the harness.
var (
	Smem  = Spec{Name: "casa-smem", Required: []string{"reads"}, MinSMEM: true, Verify: true, Shards: true}
	Align = Spec{Name: "casa-align", IndexBesideRef: true, Required: []string{"reads"}, Verify: true, Partition: true, PartitionDefault: 4 << 20}
	Serve = Spec{Name: "casa-serve", MinSMEM: true, Partition: true, Server: true}
)

// Run is one command run: its resolved shared flags and its sidecar.
type Run struct {
	spec Spec

	// The shared flags. With -index, EngineName and MinSMEM hold the
	// index header's values.
	Ref, Index, EngineName, Verify string
	MinSMEM, Workers               int

	// Options are the engine construction options: the flags' with -ref,
	// the index header's with -index.
	Options engine.Options

	Log   *slog.Logger
	RunID string
	// Ctx is cancelled by the first interrupt (and SIGTERM for servers);
	// a second one kills the process.
	Ctx context.Context

	// Registry receives the run's metrics; a server sets it to its own
	// registry before Finish writes -metrics.
	Registry *metrics.Registry
	// Trace records cycle-domain spans when -trace or -http can consume
	// them.
	Trace *trace.Trace
	// Wall records host wall-clock spans when -walltrace or -http can
	// consume them; a server sets it to its run lifecycle trace.
	Wall *trace.WallTrace
	// Tracker is the run's live progress, set by Start.
	Tracker *progress.Tracker

	partition, shards, shardOverlap int
	metrics, version                bool
	tracePath, traceSample          string
	wallPath, httpAddr              string
	progressEvery, stallAfter       time.Duration
	logLevel, logFormat             string

	verify engine.Engine // the -verify engine, built by Engine

	srv *obshttp.Server
	wd  *progress.Watchdog
}

// Exit ends a command before its run starts.
type Exit struct {
	Code  int
	Err   error // printed after the command name; nil prints nothing
	Usage bool  // print the flag usage
}

// exit ends the process; tests replace it to observe exit codes.
var exit = os.Exit

// Begin registers spec's shared flags on the command line (after the
// command's own), parses it and resolves -ref/-index, exiting for
// -version, -engine list and usage or precondition errors. It then
// installs the run's signal context.
func Begin(spec Spec) *Run {
	r, e := Parse(flag.CommandLine, spec, os.Args[1:])
	if e != nil {
		if e.Usage {
			flag.Usage()
		}
		if e.Err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", spec.Name, e.Err)
		}
		exit(e.Code)
	}
	sigs := []os.Signal{os.Interrupt}
	if spec.Server {
		sigs = append(sigs, syscall.SIGTERM)
	}
	ctx, stop := signal.NotifyContext(context.Background(), sigs...)
	// The first signal restores default handling, so a second one kills a
	// stuck drain immediately.
	context.AfterFunc(ctx, stop)
	r.Ctx = ctx
	return r
}

// Parse is Begin without the process side effects: it registers the
// shared flags on fs, parses args and resolves them. -version and
// -engine list print to stdout and end with code 0.
func Parse(fs *flag.FlagSet, spec Spec, args []string) (*Run, *Exit) {
	r := &Run{spec: spec}
	r.register(fs)
	if err := fs.Parse(args); err != nil {
		// The flag set has already reported the error (and exits by
		// itself under flag.ExitOnError, as Begin's does).
		if errors.Is(err, flag.ErrHelp) {
			return nil, &Exit{Code: 0}
		}
		return nil, &Exit{Code: 2, Err: err}
	}
	if r.version {
		buildinfo.Print(os.Stdout, spec.Name)
		return nil, &Exit{Code: 0}
	}
	if r.EngineName == "list" || r.Verify == "list" {
		engine.WriteList(os.Stdout)
		return nil, &Exit{Code: 0}
	}
	// Canonicalize aliases up front so every label — logs, trace procs,
	// reports — carries the registry name.
	r.EngineName, r.Verify = canonical(r.EngineName), canonical(r.Verify)

	missing := (r.Ref == "") == (r.Index == "")
	if spec.IndexBesideRef {
		missing = r.Ref == ""
	}
	for _, name := range spec.Required {
		if f := fs.Lookup(name); f == nil || f.Value.String() == "" {
			missing = true
		}
	}
	if missing {
		return nil, &Exit{Code: 2, Usage: true}
	}
	if r.Verify != "" && r.Ref == "" {
		return nil, &Exit{Code: 2, Err: errors.New("-verify rebuilds a second engine from FASTA and needs -ref, not -index")}
	}
	r.Options = engine.Options{
		MinSMEM: r.MinSMEM, Partition: r.partition, Shards: r.shards, ShardOverlap: r.shardOverlap,
	}
	if r.Index != "" {
		if e := r.applyHeader(fs); e != nil {
			return nil, e
		}
	}

	var err error
	if r.Log, err = newLogger(r.logLevel, r.logFormat); err != nil {
		return nil, &Exit{Code: 2, Err: err}
	}
	r.RunID = progress.NewRunID()
	if spec.Server {
		r.Log = r.Log.With("pid", os.Getpid(), "server_id", r.RunID)
		return r, nil
	}
	r.Log = r.Log.With("run_id", r.RunID, "engine", r.EngineName)
	r.Registry = metrics.New()
	if r.tracePath != "" || r.httpAddr != "" {
		policy, err := trace.ParsePolicy(r.traceSample)
		if err != nil {
			return nil, &Exit{Code: 2, Err: err}
		}
		r.Trace = trace.New(policy, 0)
	}
	if r.wallPath != "" || r.httpAddr != "" {
		r.Wall = trace.NewWall(0)
	}
	return r, nil
}

// register declares the spec's shared flags on fs.
func (r *Run) register(fs *flag.FlagSet) {
	s := r.spec
	refUsage := "reference FASTA (required unless -index)"
	indexUsage := "prebuilt casa-idx/v1 index (casa-index output); replaces -ref, and the engine and its options come from its header"
	if s.IndexBesideRef {
		refUsage = "reference FASTA (required)"
		indexUsage = "prebuilt casa-idx/v1 index (casa-index output) over the same reference; any persisting engine"
	}
	fs.StringVar(&r.Ref, "ref", "", refUsage)
	fs.StringVar(&r.Index, "index", "", indexUsage)
	fs.StringVar(&r.EngineName, "engine", "casa", `seeding engine (any registered name; "list" prints them)`)
	fs.IntVar(&r.Workers, "workers", 0, "seeding and extension worker goroutines per run (0 = one per CPU)")
	if s.MinSMEM {
		fs.IntVar(&r.MinSMEM, "min-smem", defaultMinSMEM, "minimum SMEM length")
	}
	if s.Verify {
		fs.StringVar(&r.Verify, "verify", "", `second engine to cross-check the forward SMEMs against ("list" prints the choices)`)
	}
	if s.Partition {
		fs.IntVar(&r.partition, "partition", s.PartitionDefault, "partition size in bases for partitioned engines (0 = engine default)")
	}
	if s.Shards {
		fs.IntVar(&r.shards, "shards", 0, "reference shards for sharded:* engines (0 = engine default)")
		fs.IntVar(&r.shardOverlap, "shard-overlap", 0, "shard overlap in bases for sharded:* engines (0 = engine default)")
	}
	fs.BoolVar(&r.metrics, "metrics", false, "write the metrics text exposition to stderr when the run ends")
	fs.StringVar(&r.wallPath, "walltrace", "", "write a casa-walltrace/v1 host wall-clock trace of the run (Chrome JSON; analyze with casa-trace) to this file when it ends")
	if s.Server {
		// -trace is the cycle trace, which a server does not record: the
		// name answers with the wall trace's flag.
		fs.Func("trace", "renamed: use -walltrace", func(string) error {
			return errors.New("casa-serve writes its wall-clock trace with -walltrace")
		})
	} else {
		fs.StringVar(&r.tracePath, "trace", "", "write a casa-trace/v1 trace of the run (Chrome JSON) to this file")
		fs.StringVar(&r.traceSample, "trace-sample", "all", "trace sampling policy: all, head:N, slowest:N")
		fs.StringVar(&r.httpAddr, "http", "", "serve the run (/v1/runs/{id} and its /events stream), /metrics, /trace, /walltrace and /debug/pprof/ on this address until interrupted")
		fs.DurationVar(&r.progressEvery, "progress", 0, "log a progress snapshot at this interval (0 = off)")
		fs.DurationVar(&r.stallAfter, "stall-timeout", 0, "warn with per-worker state and a goroutine dump when no seeding shard completes for this long (0 = off)")
	}
	fs.StringVar(&r.logLevel, "log-level", "info", "minimum log level: debug, info, warn, error")
	fs.StringVar(&r.logFormat, "log-format", "text", "log output format: text or json")
	fs.BoolVar(&r.version, "version", false, "print build info and exit")
}

// applyHeader resolves the run from the -index header: the engine and
// its options come from the header, and a flag the user set explicitly
// to a value the header contradicts is an error naming that flag, never
// a silent override. Flags left at their defaults never conflict.
func (r *Run) applyHeader(fs *flag.FlagSet) *Exit {
	hdr, err := peekHeader(r.Index)
	if err != nil {
		return &Exit{Code: 1, Err: err}
	}
	minSMEM := hdr.MinSMEM
	if minSMEM == 0 {
		minSMEM = defaultMinSMEM // the header records the engines' default as 0
	}
	recorded := map[string]string{
		"engine":        hdr.Engine,
		"min-smem":      strconv.Itoa(minSMEM),
		"partition":     strconv.Itoa(hdr.Partition),
		"shards":        strconv.Itoa(hdr.Shards),
		"shard-overlap": strconv.Itoa(hdr.ShardOverlap),
	}
	var conflict *Exit
	fs.Visit(func(f *flag.Flag) {
		if want, ok := recorded[f.Name]; ok && conflict == nil && f.Value.String() != want {
			conflict = &Exit{Code: 2, Err: fmt.Errorf("-%s %s conflicts with %s, whose header records %s",
				f.Name, f.Value, r.Index, want)}
		}
	})
	if conflict != nil {
		return conflict
	}
	r.EngineName, r.MinSMEM = hdr.Engine, minSMEM
	r.Options = engine.OptionsFromHeader(hdr)
	r.Options.MinSMEM = minSMEM
	return nil
}

// canonical maps an engine alias to its registry name; unknown names
// pass through for engine.New to reject.
func canonical(name string) string {
	if f, ok := engine.Lookup(name); ok {
		return f.Name
	}
	return name
}

// newLogger builds the command's stderr slog.Logger from -log-level and
// -log-format.
func newLogger(level, format string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q: %w", level, err)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("bad -log-format %q (want text or json)", format)
	}
}

// peekHeader reads just the casa-idx/v1 header of an index file.
func peekHeader(path string) (idxio.Header, error) {
	f, err := os.Open(path)
	if err != nil {
		return idxio.Header{}, err
	}
	defer f.Close()
	_, hdr, err := idxio.NewReader(f)
	return hdr, err
}

// Reference loads the -ref FASTA; without -ref it returns nil.
func (r *Run) Reference() (*refidx.Index, error) {
	if r.Ref == "" {
		return nil, nil
	}
	return refidx.LoadFasta(r.Ref)
}

// Engine builds the run's engine over ix with the resolved options, or
// loads it from -index, and with -verify also builds the engine Stream
// cross-checks it against, over ix with the same options. When ix
// accompanies -index, the index header's chromosome table must match it:
// extension and SAM emission use ix's coordinate space, so a stale index
// would silently misplace every alignment.
func (r *Run) Engine(ix *refidx.Index) (eng engine.Engine, err error) {
	if r.Index == "" {
		eng, err = engine.New(r.EngineName, ix.Flat(), r.Options)
	} else {
		eng, err = r.loadIndex(ix)
	}
	if err == nil && r.Verify != "" {
		r.verify, err = engine.New(r.Verify, ix.Flat(), r.Options)
	}
	return eng, err
}

// loadIndex loads the -index engine, checking its chromosome table
// against ix when ix is not nil.
func (r *Run) loadIndex(ix *refidx.Index) (engine.Engine, error) {
	f, err := os.Open(r.Index)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	eng, hdr, err := engine.LoadIndex(f)
	if err != nil {
		return nil, err
	}
	if ix != nil {
		if err := checkChromosomes(hdr.Chromosomes, ix.Chromosomes()); err != nil {
			return nil, fmt.Errorf("%s does not match -ref %s: %w", r.Index, r.Ref, err)
		}
	}
	return eng, nil
}

// checkChromosomes requires the index header's chromosome table to match
// the reference's, name for name and coordinate for coordinate. An index
// written without a chromosome table passes — there is nothing to
// cross-check.
func checkChromosomes(got []idxio.Chromosome, want []refidx.Chromosome) error {
	if len(got) == 0 {
		return nil
	}
	if len(got) != len(want) {
		return fmt.Errorf("index has %d sequences, reference has %d", len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if g.Name != w.Name || g.Start != int64(w.Start) || g.Length != int64(w.Length) {
			return fmt.Errorf("sequence %d: index has %s [%d,+%d), reference has %s [%d,+%d)",
				i, g.Name, g.Start, g.Length, w.Name, w.Start, w.Length)
		}
	}
	return nil
}

// Pool returns the batch options wiring the run's workers and recorders
// and, after Start, its progress tracker.
func (r *Run) Pool() batch.Options {
	return batch.Options{Workers: r.Workers, Metrics: r.Registry, Trace: r.Trace, Wall: r.Wall, Progress: r.Tracker}
}

// Phase records one host phase of the command (proc Name, track
// "phase") in the wall trace; a no-op without -walltrace.
func (r *Run) Phase(name string, start time.Time) {
	r.Wall.Record(r.spec.Name, "phase", name, start, time.Since(start))
}

// Start opens the live part of the sidecar once the command's set-up is
// done: it creates the progress tracker over total reads (0 = unknown,
// grown with AddTotal), logs "run starting" with attrs, then starts the
// -http server, the stall watchdog and the -progress ticker.
func (r *Run) Start(total int64, attrs ...any) {
	r.Tracker = progress.New(r.RunID, r.EngineName, r.Pool().WorkerCount(), total)
	r.Log.Info("run starting", attrs...)
	if r.httpAddr != "" {
		// Start before the run so /debug/pprof can profile it and
		// /v1/runs/{id} and its events observe it live: the run is the one
		// entry of the sidecar's run registry, under its run_id.
		runs := progress.NewRegistry(1)
		if err := runs.Add(r.Tracker); err != nil {
			r.Fatal(err)
		}
		srv, err := obshttp.Start(r.httpAddr, r.Registry, runs, r.Wall)
		if err != nil {
			r.Fatal(err)
		}
		r.srv = srv
		r.Log.Info("observability server listening", "addr", srv.Addr())
	}
	if r.stallAfter > 0 {
		r.wd = progress.NewWatchdog(r.Tracker, r.stallAfter, r.Log)
		r.wd.Start()
	}
	if r.progressEvery > 0 {
		go func(t *progress.Tracker, every time.Duration) {
			tick := time.NewTicker(every)
			defer tick.Stop()
			for {
				select {
				case <-t.Done():
					return
				case <-tick.C:
					logSnapshot(r.Log, t.Snapshot())
				}
			}
		}(r.Tracker, r.progressEvery)
	}
}

// Fatal logs err, releases the -http listener and exits 1.
func (r *Run) Fatal(err error) {
	r.Log.Error(err.Error())
	r.close()
	exit(1)
}

// close stops the watchdog and releases the -http listener.
func (r *Run) close() {
	if r.wd != nil {
		r.wd.Stop()
	}
	if r.srv != nil {
		if err := r.srv.Close(); err != nil {
			r.Log.Error(err.Error())
		}
		r.srv = nil
	}
}

// Finish ends the run and exits. It publishes the cycle trace to /trace
// and writes the -trace and wall-trace files, runs report (the command's
// own output, reporting whether the run failed; nil for none), writes
// -metrics, holds the -http endpoints until interrupted, releases the
// listener, logs the final progress snapshot and exits 130 when
// interrupted, 1 when failed, 0 otherwise. On an interrupted run the
// traces cover exactly the completed shards.
func (r *Run) Finish(interrupted bool, report func() (failed bool)) {
	if r.Trace != nil {
		spans := r.Trace.Spans()
		if r.srv != nil {
			r.srv.PublishTrace(spans)
		}
		if r.tracePath != "" {
			if err := trace.WriteFile(r.tracePath, spans); err != nil {
				r.Fatal(err)
			}
		}
	}
	if r.Wall != nil && r.wallPath != "" {
		spans := r.Wall.Spans()
		if err := trace.WriteWallFile(r.wallPath, spans, r.Wall.Dropped()); err != nil {
			r.Fatal(err)
		}
		r.Log.Info("wall trace written", "path", r.wallPath,
			"spans", len(spans), "dropped", r.Wall.Dropped())
	}
	failed := report != nil && report()
	if r.metrics {
		if err := r.Registry.WriteText(os.Stderr); err != nil {
			r.Fatal(err)
		}
	}
	if r.srv != nil && !interrupted {
		r.Log.Info("serving observability endpoints until interrupted", "addr", r.srv.Addr())
		<-r.Ctx.Done()
	}
	r.close()
	if r.Tracker != nil {
		logSnapshot(r.Log, r.Tracker.Snapshot())
	}
	switch {
	case interrupted:
		exit(130)
	case failed:
		exit(1)
	default:
		exit(0)
	}
}

// logSnapshot emits one progress snapshot as an info record — the
// terminal counterpart of the /v1/runs/{id} endpoint.
func logSnapshot(log *slog.Logger, s progress.Snapshot) {
	log.Info("progress",
		"reads_done", s.ReadsDone,
		"total_reads", s.TotalReads,
		"shards_done", s.ShardsDone,
		"percent_done", fmt.Sprintf("%.1f", s.PercentDone),
		"host_reads_per_s", fmt.Sprintf("%.0f", s.HostReadsPerS),
		"model_cycles", s.ModelCycles,
		"eta_s", fmt.Sprintf("%.1f", s.ETASeconds))
}
