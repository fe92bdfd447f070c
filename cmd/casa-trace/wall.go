package main

import (
	"fmt"
	"io"
	"sort"

	"casa/internal/trace"
)

// wallShard is one shard span joined with its parsed name, for the
// slowest-shards ranking.
type wallShard struct {
	span  trace.WallSpan
	shard int
}

// printWallReport is the casa-walltrace/v1 report: where the host time
// went — a per-worker utilization table, the pool's load-imbalance ratio
// and the slowest shards. Everything here is nondeterministic host time.
func printWallReport(w io.Writer, spans []trace.WallSpan, dropped int64, top int) {
	fmt.Fprintf(w, "== %s: %d spans (%d dropped) ==\n", trace.WallSchemaVersion, len(spans), dropped)
	workers, others := trace.WallWorkers(spans)
	window := trace.WallWindow(spans)

	var shards []wallShard
	totalShards, totalReads, poolBusy := poolTotals(workers)
	for _, s := range spans {
		if shard, _, _, ok := trace.ParseWallShardName(s.Name); ok {
			shards = append(shards, wallShard{span: s, shard: shard})
		}
	}
	fmt.Fprintf(w, "window: %d us   workers: %d   shards: %d   reads: %d\n\n",
		window, len(workers), totalShards, totalReads)

	if len(workers) > 0 {
		// Utilization is busy time over the pool window (first worker
		// span start to last worker span end): the gantt summary, one row
		// per worker.
		poolLo, poolHi := workers[0].StartUS, workers[0].EndUS
		for _, st := range workers[1:] {
			if st.StartUS < poolLo {
				poolLo = st.StartUS
			}
			if st.EndUS > poolHi {
				poolHi = st.EndUS
			}
		}
		poolWindow := poolHi - poolLo
		fmt.Fprintln(w, "worker   shards    reads    busy_us    util%")
		for _, st := range workers {
			util := 0.0
			if poolWindow > 0 {
				util = 100 * float64(st.BusyUS) / float64(poolWindow)
			}
			fmt.Fprintf(w, "  %-6s %6d  %7d  %9d  %6.1f\n",
				st.Proc[len(st.Proc)-2:], st.Shards, st.Reads, st.BusyUS, util)
		}
		utilPct, par := 0.0, 0.0
		if poolWindow > 0 {
			par = float64(poolBusy) / float64(poolWindow)
			utilPct = 100 * par / float64(len(workers))
		}
		fmt.Fprintf(w, "pool: busy %d us over window %d us   utilization %.1f%%   parallelism %.2fx\n",
			poolBusy, poolWindow, utilPct, par)
		fmt.Fprintf(w, "imbalance (max/mean worker busy): %.2fx\n\n", trace.WallImbalance(workers))
		// Stages sharing the pool (casa-align seeds on its engine's track
		// and extends on "seedex") split the busy time between them.
		byTrack := map[string][]trace.WallSpan{}
		for _, s := range spans {
			if _, ok := trace.ParseWallWorkerProc(s.Proc); ok {
				byTrack[s.Track] = append(byTrack[s.Track], s)
			}
		}
		if len(byTrack) > 1 {
			fmt.Fprintln(w, "track          shards    reads    busy_us   busy%")
			for _, track := range sortedKeys(byTrack) {
				ws, _ := trace.WallWorkers(byTrack[track])
				shards, reads, busy := poolTotals(ws)
				fmt.Fprintf(w, "  %-12s %6d  %7d  %9d  %6.1f\n",
					track, shards, reads, busy, 100*float64(busy)/float64(max(poolBusy, 1)))
			}
			fmt.Fprintln(w)
		}
	}

	if len(shards) > 0 {
		sort.Slice(shards, func(i, j int) bool {
			a, b := shards[i], shards[j]
			if a.span.Dur != b.span.Dur {
				return a.span.Dur > b.span.Dur
			}
			return a.shard < b.shard
		})
		n := min(top, len(shards))
		fmt.Fprintf(w, "slowest %d shards:\n", n)
		for _, sh := range shards[:n] {
			fmt.Fprintf(w, "  %-32s %s/%s  %8d us\n",
				sh.span.Name, sh.span.Proc, sh.span.Track, sh.span.Dur)
		}
		fmt.Fprintln(w)
	}

	if len(others) > 0 {
		// Host phases and lifecycle spans, grouped by proc/track, summed.
		type groupKey struct{ proc, track, name string }
		groups := map[groupKey]struct {
			count int
			dur   int64
		}{}
		for _, s := range others {
			k := groupKey{s.Proc, s.Track, s.Name}
			g := groups[k]
			g.count++
			g.dur += s.Dur
			groups[k] = g
		}
		keys := make([]groupKey, 0, len(groups))
		for k := range groups {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			a, b := keys[i], keys[j]
			if a.proc != b.proc {
				return a.proc < b.proc
			}
			if a.track != b.track {
				return a.track < b.track
			}
			return a.name < b.name
		})
		fmt.Fprintf(w, "non-worker spans (%d):\n", len(others))
		for _, k := range keys {
			g := groups[k]
			fmt.Fprintf(w, "  %s/%s  %-24s x%-4d %8d us\n", k.proc, k.track, k.name, g.count, g.dur)
		}
	}
}

// poolTotals sums the shards, reads and busy time of workers.
func poolTotals(workers []trace.WallWorkerStat) (shards, reads int, busyUS int64) {
	for _, st := range workers {
		shards += st.Shards
		reads += st.Reads
		busyUS += st.BusyUS
	}
	return shards, reads, busyUS
}
