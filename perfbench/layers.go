package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"casa/internal/engine"
	"casa/internal/trace"
)

// spans accumulates the traced run's top-level layer times; unattributed
// is the part of the traced wall no layer span covers.
type spans map[string]time.Duration

// since adds the time elapsed since t to layer.
func (s spans) since(layer string, t time.Time) { s[layer] += time.Since(t) }

// maxUnattributed is the share of a traced replay's wall that may fall
// outside every layer span; a replay above it fails the run.
const maxUnattributed = 0.05

// setUnattributed sets trace.unattributed_frac, failing the run when the
// layer spans leave more than maxUnattributed of the replay uncovered.
func setUnattributed(o *outcome, s spans, replay time.Duration) error {
	var covered time.Duration
	for _, d := range s {
		covered += d
	}
	un := 1 - float64(covered)/float64(replay)
	if un > maxUnattributed {
		return fmt.Errorf("traced layers cover only %.1f%% of the replay wall (tolerance %.0f%% unattributed)",
			100*(1-un), 100*maxUnattributed)
	}
	o.set("trace.unattributed_frac", un, "frac")
	return nil
}

// poolStats sets the batch.* metrics from one or more SeedEngine calls'
// wall spans: worker busy time, reduce spans, utilization over the window
// the spans cover, imbalance, and per-call overhead (call wall minus the
// mean worker's busy time).
func poolStats(o *outcome, wall *trace.WallTrace, workers, calls int, callWall time.Duration) (busy time.Duration, err error) {
	if dropped := wall.Dropped(); dropped > 0 {
		return 0, fmt.Errorf("the wall profile dropped %d spans", dropped)
	}
	ws, others := trace.WallWorkers(wall.Spans())
	var busyUS, reduceUS int64
	for _, w := range ws {
		busyUS += w.BusyUS
	}
	for _, s := range others {
		if s.Proc == trace.WallHostProc {
			reduceUS += s.Dur
		}
	}
	busy = time.Duration(busyUS) * time.Microsecond
	window := trace.WallWindow(wall.Spans())
	o.set("batch.worker_util", float64(busyUS)/float64(window*int64(workers)), "frac")
	o.set("batch.imbalance", trace.WallImbalance(ws), "ratio")
	o.set("batch.reduce_s", float64(reduceUS)/1e6, "s")
	o.set("batch.run_overhead_us", float64(callWall-busy/time.Duration(workers))/float64(time.Microsecond)/float64(calls), "us")
	return busy, nil
}

// loadIndex opens and loads a casa-idx/v1 file the way the CLIs do.
func loadIndex(path string) (engine.Engine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	eng, _, err := engine.LoadIndex(f)
	return eng, err
}

// heapOfLoad is the live heap an index occupies once loaded.
func heapOfLoad(path string) (float64, error) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	eng, err := loadIndex(path)
	if err != nil {
		return 0, err
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	runtime.KeepAlive(eng)
	return float64(int64(m1.HeapAlloc)-int64(m0.HeapAlloc)) / (1 << 20), nil
}

func fileMiB(path string) float64 {
	info, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return float64(info.Size()) / (1 << 20)
}
