// Package progress is the live half of the observability layer: while
// internal/metrics and internal/trace describe a run after it drains,
// this package answers "how far along is it right now?" for runs that
// take minutes to hours — per-worker liveness, percent-complete, host
// and model throughput, and an ETA, aggregated on demand into a
// casa-progress/v1 JSON snapshot served by internal/obshttp's
// /v1/runs/{id} and /v1/runs/{id}/events endpoints and logged by the
// CLIs' -progress ticker.
//
// The hot-path contract mirrors internal/batch: each worker owns one
// cache-line-padded cell of atomic counters and touches nothing shared,
// so updating progress costs a handful of uncontended atomic adds per
// *shard* (not per read) and never perturbs the modelled hardware.
// Snapshot readers run concurrently with writers and see a consistent
// enough view for monitoring: every field is monotone, and the terminal
// snapshot (after Finish) is exact.
//
// Determinism: timings (elapsed, throughput, ETA) measure the host and
// differ run to run, but the counts in a terminal snapshot — reads done,
// shards done, accumulated model cycles — are deterministic for a fixed
// shard grain at any worker count, the same invariant the batch runner
// maintains for Results (enforced by internal/batch's progress tests).
package progress

import (
	"crypto/rand"
	"encoding/hex"
	"sync"
	"sync/atomic"
	"time"
)

// padded is an atomic counter alone on its cache line, so per-worker
// cells never false-share with their neighbours.
type padded struct {
	v atomic.Int64
	_ [56]byte
}

// SchemaVersion identifies the snapshot JSON layout. Bump only on
// incompatible changes; new fields are not schema changes.
const SchemaVersion = "casa-progress/v1"

// NewRunID returns a fresh 8-byte random hex run identifier, the value
// the CLIs scope their structured logs and progress snapshots with.
func NewRunID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively unreachable; a fixed ID keeps
		// the run observable rather than killing it over a label.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// cell is one worker's private progress state. Padded to a cache line so
// neighbouring workers never false-share.
type cell struct {
	reads  padded // reads completed by this worker
	shards padded // shards completed by this worker
	last   padded // 1 + the last global read index completed (0 = none)
	cycles padded // accumulated model cycles attributed to this worker
}

// Tracker aggregates one run's per-worker progress cells. Create with
// New; share the pointer between the batch runner (writer), the HTTP
// server and the CLI ticker (readers). All methods are safe for
// concurrent use except SetNow, which must be called before the run.
type Tracker struct {
	runID   string
	engine  string
	workers int
	now     func() time.Time
	start   time.Time

	total    padded // total reads expected (0 = unknown / streaming)
	lastMark padded // unix nanos of the most recent shard completion

	cells []cell

	// updates is a coalescing edge trigger: ShardDone performs a
	// non-blocking send, so a consumer that drains the channel sees "some
	// shard completed since my last snapshot" without per-shard buffering
	// — the hook live streams (casa-serve's per-shard SSE events) wait on
	// instead of polling.
	updates chan struct{}

	doneOnce sync.Once
	done     chan struct{}
}

// New returns a tracker for a run of workers worker goroutines over
// total reads. total may be 0 when the input is streamed and its size
// is unknown upfront; grow it with AddTotal as batches arrive
// (percent-complete and ETA stay zero while total is zero).
func New(runID, engine string, workers int, total int64) *Tracker {
	if workers < 1 {
		workers = 1
	}
	t := &Tracker{
		runID:   runID,
		engine:  engine,
		workers: workers,
		now:     time.Now,
		cells:   make([]cell, workers),
		updates: make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
	t.total.v.Store(total)
	t.start = t.now()
	t.lastMark.v.Store(t.start.UnixNano())
	return t
}

// SetNow replaces the tracker's clock (tests). Not safe once the run has
// started; call immediately after New.
func (t *Tracker) SetNow(now func() time.Time) {
	t.now = now
	t.start = now()
	t.lastMark.v.Store(t.start.UnixNano())
}

// RunID returns the run identifier the tracker was created with.
func (t *Tracker) RunID() string { return t.runID }

// Engine returns the engine label the tracker was created with.
func (t *Tracker) Engine() string { return t.engine }

// Workers returns the number of per-worker cells.
func (t *Tracker) Workers() int { return t.workers }

// AddTotal grows the expected read total by n — the streaming-input
// hook: casa-align learns its input size batch by batch.
func (t *Tracker) AddTotal(n int64) { t.total.v.Add(n) }

// Total returns the expected read total (0 = unknown).
func (t *Tracker) Total() int64 { return t.total.v.Load() }

// ShardDone records that worker completed one shard of reads reads whose
// highest global read index was lastRead. Called by the batch runner
// once per shard; out-of-range workers are ignored (defensive — the
// runner clamps its pool to the tracker's worker count).
func (t *Tracker) ShardDone(worker, reads, lastRead int) {
	if worker < 0 || worker >= len(t.cells) {
		return
	}
	c := &t.cells[worker]
	c.reads.v.Add(int64(reads))
	c.shards.v.Add(1)
	c.last.v.Store(int64(lastRead) + 1)
	t.Touch()
	select {
	case t.updates <- struct{}{}:
	default: // a signal is already pending; receivers coalesce
	}
}

// Updates returns the coalescing shard-completion signal: at least one
// receive is possible after every ShardDone, and consecutive completions
// between receives collapse into one signal. Event-driven consumers (the
// serving layer's per-shard SSE stream) select on it alongside Done and
// a heartbeat ticker instead of polling Snapshot.
func (t *Tracker) Updates() <-chan struct{} { return t.updates }

// AddCycles attributes model cycles to worker's cell (engines with a
// cycle-domain model call this per shard; others contribute nothing).
func (t *Tracker) AddCycles(worker int, cycles int64) {
	if worker < 0 || worker >= len(t.cells) || cycles <= 0 {
		return
	}
	t.cells[worker].cycles.v.Add(cycles)
}

// Touch bumps the liveness mark without recording work — for pipeline
// phases (extension, IO) that run between seeding batches, so the stall
// watchdog does not mistake them for a hung pool.
func (t *Tracker) Touch() { t.lastMark.v.Store(t.now().UnixNano()) }

// LastProgress returns the time of the most recent shard completion (or
// Touch, or the tracker's creation).
func (t *Tracker) LastProgress() time.Time {
	return time.Unix(0, t.lastMark.v.Load())
}

// Finish marks the run complete (successfully or after cancellation —
// the terminal snapshot reports whatever completed). Idempotent.
func (t *Tracker) Finish() { t.doneOnce.Do(func() { close(t.done) }) }

// Done returns a channel closed by Finish — the SSE handler's and the
// watchdog's termination signal.
func (t *Tracker) Done() <-chan struct{} { return t.done }

// Finished reports whether Finish has been called.
func (t *Tracker) Finished() bool {
	select {
	case <-t.done:
		return true
	default:
		return false
	}
}

// WorkerState is one worker's cell in a snapshot.
type WorkerState struct {
	Worker   int   `json:"worker"`
	Reads    int64 `json:"reads"`
	Shards   int64 `json:"shards"`
	LastRead int64 `json:"last_read"` // highest global read index completed; -1 = none yet
	Cycles   int64 `json:"cycles"`
}

// Snapshot is one casa-progress/v1 document: the aggregated counts plus
// derived rates. The field set is fixed (deterministic shape); only the
// timing-derived values vary between identical runs.
type Snapshot struct {
	Schema          string        `json:"schema"`
	RunID           string        `json:"run_id"`
	Engine          string        `json:"engine"`
	Workers         int           `json:"workers"`
	TotalReads      int64         `json:"total_reads"` // 0 = unknown (streaming input)
	ReadsDone       int64         `json:"reads_done"`
	ShardsDone      int64         `json:"shards_done"`
	ModelCycles     int64         `json:"model_cycles"`
	PercentDone     float64       `json:"percent_done"`       // 0 when total unknown
	ElapsedSeconds  float64       `json:"elapsed_seconds"`    // host wall clock since New
	HostReadsPerS   float64       `json:"host_reads_per_s"`   // reads done / elapsed
	ModelCyclesPerS float64       `json:"model_cycles_per_s"` // modelled cycles simulated per host second
	ETASeconds      float64       `json:"eta_seconds"`        // 0 when total unknown or no rate yet
	Done            bool          `json:"done"`
	PerWorker       []WorkerState `json:"per_worker"`
}

// Snapshot aggregates the cells into one casa-progress/v1 document.
// Safe to call concurrently with workers still updating: each cell field
// is read atomically, so totals are monotone even if a worker lands a
// shard mid-aggregation.
func (t *Tracker) Snapshot() Snapshot {
	s := Snapshot{
		Schema:     SchemaVersion,
		RunID:      t.runID,
		Engine:     t.engine,
		Workers:    t.workers,
		TotalReads: t.Total(),
		Done:       t.Finished(),
		PerWorker:  make([]WorkerState, t.workers),
	}
	for w := range t.cells {
		c := &t.cells[w]
		ws := WorkerState{
			Worker:   w,
			Reads:    c.reads.v.Load(),
			Shards:   c.shards.v.Load(),
			LastRead: c.last.v.Load() - 1,
			Cycles:   c.cycles.v.Load(),
		}
		s.PerWorker[w] = ws
		s.ReadsDone += ws.Reads
		s.ShardsDone += ws.Shards
		s.ModelCycles += ws.Cycles
	}
	elapsed := t.now().Sub(t.start).Seconds()
	if elapsed > 0 {
		s.ElapsedSeconds = elapsed
		s.HostReadsPerS = float64(s.ReadsDone) / elapsed
		s.ModelCyclesPerS = float64(s.ModelCycles) / elapsed
	}
	if s.TotalReads > 0 {
		s.PercentDone = 100 * float64(s.ReadsDone) / float64(s.TotalReads)
		if s.HostReadsPerS > 0 && s.ReadsDone < s.TotalReads {
			s.ETASeconds = float64(s.TotalReads-s.ReadsDone) / s.HostReadsPerS
		}
	}
	return s
}
