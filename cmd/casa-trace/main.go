// Command casa-trace analyzes trace files without a browser. It reads
// the file's schema (otherData.schema) and prints that domain's report.
//
// A casa-trace/v1 file (casa-smem/casa-align -trace, or GET /trace) holds
// modelled time: engine cycles (or fetches / FM-index steps — see
// docs/OBSERVABILITY.md for each engine's unit) for read spans,
// modelled-wall nanoseconds for pipeline system spans. Per engine the
// report ranks the slowest reads with per-track breakdowns, prints
// power-of-two histograms of per-read track time, and summarizes stage
// overlap on the system timelines (the pipeline model's Fig-14
// waterfalls).
//
// A casa-walltrace/v1 file (-walltrace, or GET /walltrace) holds
// host wall-clock time: the report is a per-worker utilization table,
// the pool's imbalance ratio and the slowest shards.
//
// Usage:
//
//	casa-trace [-top 10] trace.json
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/bits"
	"os"
	"sort"

	"casa/internal/buildinfo"
	"casa/internal/trace"
)

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

// cli runs casa-trace on its arguments and returns the exit code: 2 for
// a usage error, 1 when the trace cannot be read.
func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("casa-trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	top := fs.Int("top", 10, "slowest reads (cycle report) or shards (wall report) to show")
	version := fs.Bool("version", false, "print build info and exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *version {
		buildinfo.Print(stdout, "casa-trace")
		return 0
	}
	switch {
	case *top < 0:
		fmt.Fprintf(stderr, "casa-trace: -top must be >= 0, got %d\n", *top)
		return 2
	case fs.NArg() != 1:
		fmt.Fprintln(stderr, "usage: casa-trace [-top N] trace.json")
		return 2
	}
	if err := run(stdout, fs.Arg(0), *top); err != nil {
		fmt.Fprintf(stderr, "casa-trace: %v\n", err)
		return 1
	}
	return 0
}

// run prints the report of the trace file's schema.
func run(w io.Writer, path string, top int) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var doc struct {
		OtherData struct {
			Schema string `json:"schema"`
		} `json:"otherData"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(&doc); err != nil {
		return fmt.Errorf("%s: not a JSON trace document: %v", path, err)
	}
	if dec.More() {
		return fmt.Errorf("%s: found a stream of JSON values (JSONL), want one Chrome trace_event document", path)
	}
	switch schema := doc.OtherData.Schema; schema {
	case trace.SchemaVersion:
		spans, err := trace.ParseChrome(data)
		if err != nil {
			return err
		}
		if err := trace.Validate(spans); err != nil {
			fmt.Fprintf(os.Stderr, "casa-trace: warning: stream violates %s invariants: %v\n", schema, err)
		}
		printReport(w, analyze(spans), top)
	case trace.WallSchemaVersion:
		spans, dropped, err := trace.ParseChromeWall(data)
		if err != nil {
			return err
		}
		printWallReport(w, spans, dropped, top)
	default:
		return fmt.Errorf("%s: unknown trace schema %q, want %s or %s", path, schema, trace.SchemaVersion, trace.WallSchemaVersion)
	}
	return nil
}

// readStat is one read's cost on one process: the length of its span
// window and the per-track interval-union breakdown (union, not sum, so
// nested sub-spans — casa's per-partition spans inside a stage span —
// are not double counted).
type readStat struct {
	read    int32
	window  int64            // max end - min start over the read's spans
	byTrack map[string]int64 // track -> union of span intervals
}

// procReport aggregates one process (engine or pipeline system).
type procReport struct {
	proc   string
	spans  int
	reads  []readStat       // slowest first (window desc, read asc)
	hist   map[string][]int // track -> power-of-two buckets of per-read union
	system []trace.Span     // system-timeline spans in stream order
}

// analyze folds a span stream into per-process reports, sorted by
// process name.
func analyze(spans []trace.Span) []procReport {
	type key struct {
		proc string
		read int32
	}
	perRead := map[key][]trace.Span{}
	sysSpans := map[string][]trace.Span{}
	count := map[string]int{}
	for _, s := range spans {
		count[s.Proc]++
		if s.Read == trace.SystemRead {
			sysSpans[s.Proc] = append(sysSpans[s.Proc], s)
			continue
		}
		k := key{s.Proc, s.Read}
		perRead[k] = append(perRead[k], s)
	}

	stats := map[string][]readStat{}
	for k, ss := range perRead {
		window, byTrack := overlapSummary(ss)
		stats[k.proc] = append(stats[k.proc], readStat{read: k.read, window: window, byTrack: byTrack})
	}

	var out []procReport
	for proc := range count {
		rep := procReport{proc: proc, spans: count[proc], system: sysSpans[proc]}
		rep.reads = stats[proc]
		sort.Slice(rep.reads, func(i, j int) bool {
			a, b := rep.reads[i], rep.reads[j]
			if a.window != b.window {
				return a.window > b.window
			}
			return a.read < b.read
		})
		rep.hist = map[string][]int{}
		for _, st := range rep.reads {
			for t, u := range st.byTrack {
				b := bucket(u)
				for len(rep.hist[t]) <= b {
					rep.hist[t] = append(rep.hist[t], 0)
				}
				rep.hist[t][b]++
			}
		}
		out = append(out, rep)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].proc < out[j].proc })
	return out
}

// unionLen returns the total length covered by the spans' intervals,
// counting overlapping (nested) stretches once.
func unionLen(ss []trace.Span) int64 {
	sort.Slice(ss, func(i, j int) bool { return ss[i].Start < ss[j].Start })
	var total, end int64
	end = -1 << 62
	for _, s := range ss {
		if s.Start > end {
			total += s.Dur
			end = s.End()
		} else if s.End() > end {
			total += s.End() - end
			end = s.End()
		}
	}
	return total
}

// bucket maps a duration to its power-of-two histogram bucket: bucket b
// holds values in [2^(b-1), 2^b), with 0 in bucket 0.
func bucket(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

func printReport(w io.Writer, reps []procReport, top int) {
	for _, rep := range reps {
		fmt.Fprintf(w, "== %s: %d spans, %d reads ==\n", rep.proc, rep.spans, len(rep.reads))

		if len(rep.reads) > 0 {
			n := min(top, len(rep.reads))
			fmt.Fprintf(w, "slowest %d reads (modelled units; per-track interval union):\n", n)
			for _, st := range rep.reads[:n] {
				fmt.Fprintf(w, "  read %6d  total %10d", st.read, st.window)
				for _, t := range sortedKeys(st.byTrack) {
					fmt.Fprintf(w, "  %s=%d", t, st.byTrack[t])
				}
				fmt.Fprintln(w)
			}
			fmt.Fprintln(w, "per-track histogram (bucket 2^b covers [2^(b-1), 2^b)):")
			for _, t := range sortedKeys(rep.hist) {
				fmt.Fprintf(w, "  %-12s", t)
				for b, c := range rep.hist[t] {
					if c > 0 {
						fmt.Fprintf(w, " 2^%d:%d", b, c)
					}
				}
				fmt.Fprintln(w)
			}
		}

		if len(rep.system) > 0 {
			wall, covered := overlapSummary(rep.system)
			fmt.Fprintf(w, "system timeline: wall %d\n", wall)
			var sum int64
			for _, t := range sortedKeys(covered) {
				c := covered[t]
				sum += c
				pct := 0.0
				if wall > 0 {
					pct = 100 * float64(c) / float64(wall)
				}
				fmt.Fprintf(w, "  %-12s covered %10d  (%.1f%% of wall)\n", t, c, pct)
			}
			if wall > 0 {
				fmt.Fprintf(w, "  parallelism %.2fx (total stage time / wall)\n", float64(sum)/float64(wall))
			}
		}
		fmt.Fprintln(w)
	}
}

// overlapSummary reduces spans — one read's, or a system timeline — to
// their wall length (max end - min start) and the per-track covered
// lengths; on a system timeline, covered/wall over all tracks is the
// average stage parallelism.
func overlapSummary(ss []trace.Span) (wall int64, covered map[string]int64) {
	lo, hi := ss[0].Start, ss[0].End()
	perTrack := map[string][]trace.Span{}
	for _, s := range ss {
		if s.Start < lo {
			lo = s.Start
		}
		if s.End() > hi {
			hi = s.End()
		}
		perTrack[s.Track] = append(perTrack[s.Track], s)
	}
	covered = map[string]int64{}
	for t, ts := range perTrack {
		covered[t] = unionLen(ts)
	}
	return hi - lo, covered
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
