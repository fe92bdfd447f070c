// Package trace is the cycle-domain event-tracing layer of the CASA
// reproduction: a std-lib-only, allocation-conscious span recorder that
// the seeding engines emit into, with deterministic merging
// across batch workers and export to Chrome trace_event JSON (loadable in
// Perfetto / chrome://tracing) under the casa-trace/v1 schema (see
// docs/OBSERVABILITY.md). The host wall-clock domain (wall.go) shares
// the file format under its own schema, casa-walltrace/v1 (chrome.go).
//
// Spans live in the *modelled* time domain, never the host wall clock:
// for the accelerator engines the unit is the engine's native cycle (or
// fetch/step) count. Every span belongs to a read: it is keyed by the
// read's index in the input batch and carries read-local timestamps (cycle 0 = the moment the
// modelled hardware starts that read), so a span's value depends only on
// the read itself — the same discipline that makes the batch runner's
// Results bit-identical at any worker count extends to traces: the merged
// span stream, and therefore the exported bytes, are identical at
// -workers 1, 4 and 16.
//
// Recording is two-level, mirroring internal/batch:
//
//   - a Buffer is a single-worker sink: appends without locking, one per
//     worker goroutine (or one for a sequential run). A nil *Buffer is a
//     valid no-op sink, so engines emit unconditionally.
//   - a Trace owns the run: it hands out Buffers (NewBuffer is locked,
//     called once per worker, off the hot path) and merges them on demand
//     (Spans), sorting by read index, applying the sampling policy, and
//     capping the merged stream at the trace's capacity.
package trace

import (
	"sort"
	"sync"
)

// SchemaVersion identifies the exported cycle-domain trace layout. Bump
// only on incompatible changes.
const SchemaVersion = "casa-trace/v1"

// Span is one recorded event: Dur units of modelled time on a named
// track, belonging to a read.
type Span struct {
	Proc  string // process-level group: engine name
	Track string // thread-level track within the process: stage name
	Name  string // span label: "exact", "smem", "p03", "fwd", ...
	Read  int32  // read index in the input batch
	Start int64  // modelled start time, read-local
	Dur   int64  // modelled duration, >= 0

	// seq is the emission order within the owning Buffer; the merge key
	// (Proc, Read, seq) reproduces each read's emission order exactly,
	// independent of how reads were sharded across workers.
	seq int64
}

// End returns Start+Dur.
func (s Span) End() int64 { return s.Start + s.Dur }

// Buffer collects the spans of one worker (or one sequential run). It is
// not safe for concurrent use — each worker owns exactly one. The zero
// value is unusable; obtain buffers from Trace.NewBuffer. A nil *Buffer
// is a valid sink that drops everything, so instrumented hot paths need
// no tracing-enabled check beyond the pointer test Emit does itself.
type Buffer struct {
	proc  string
	spans []Span
	seq   int64

	// head is the read budget of a head:N policy (0: no budget). A worker
	// meets its reads in increasing index order, across shards and
	// batches, so once a buffer holds head distinct reads (the highest is
	// last) it holds the head lowest reads it will ever see, and every
	// read of the run's head lowest that it was given: spans of a later
	// read are dropped at Emit instead of at the merge.
	head, reads int
	last        int32
}

// Emit records one read-scoped span. No-op on a nil buffer, a negative
// duration (a cycle model rounding to nothing is not an event), or a
// read past a head:N buffer's budget.
func (b *Buffer) Emit(read int, track, name string, start, dur int64) {
	if b == nil || dur < 0 {
		return
	}
	if b.head > 0 && int32(read) > b.last {
		if b.reads == b.head {
			return
		}
		b.reads++
		b.last = int32(read)
	}
	b.spans = append(b.spans, Span{
		Proc: b.proc, Track: track, Name: name,
		Read: int32(read), Start: start, Dur: dur, seq: b.seq,
	})
	b.seq++
}

// Len returns the number of spans recorded since the last merge
// (Trace.Spans moves them into the merged stream).
func (b *Buffer) Len() int {
	if b == nil {
		return 0
	}
	return len(b.spans)
}

// Trace owns one run's recording: the sampling policy, the capacity of
// the merged stream, and the worker buffers.
type Trace struct {
	policy   Policy
	capacity int

	mu      sync.Mutex
	buffers []*Buffer
	merged  []Span // every span merged so far, sorted (see merge)
}

// DefaultCapacity is the default cap, in spans, on the stream Spans
// returns. It bounds what is exported, not what is recorded: worker
// buffers keep every span until the run ends, so a full run's buffers
// grow with its span count whatever the capacity. The cap is large
// enough that sampling, not the cap, is normally what bounds output.
const DefaultCapacity = 1 << 21

// New returns a trace session with the given sampling policy and
// capacity (spans Spans keeps after sampling; <= 0 means
// DefaultCapacity).
func New(policy Policy, capacity int) *Trace {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Trace{policy: policy, capacity: capacity}
}

// NewBuffer registers and returns a fresh span buffer whose spans carry
// proc as their process label. Safe for concurrent use; called once per
// worker, off the hot path. On a nil Trace it returns nil — the no-op
// sink — so callers thread `tr.NewBuffer(engine)` through unconditionally.
func (t *Trace) NewBuffer(proc string) *Buffer {
	if t == nil {
		return nil
	}
	b := &Buffer{proc: proc, last: -1}
	if t.policy.Kind == "head" {
		b.head = t.policy.N
	}
	t.mu.Lock()
	t.buffers = append(t.buffers, b)
	t.mu.Unlock()
	return b
}

// Policy returns the sampling policy the session was created with.
func (t *Trace) Policy() Policy { return t.policy }

// Spans merges every buffer registered so far into one deterministic
// span stream: sorted by (Proc, Read, emission order), sampled per the
// policy, then cut to the capacity (evicting the earliest reads' spans
// first). The result is
// independent of worker count and of buffer registration order; callers
// must not run Spans concurrently with workers still emitting.
//
// The merged stream replaces the buffers: their spans move into it, so
// a finished run holds its spans once through export, and a later call
// merges only what was recorded since. A stream Spans has returned is
// never modified afterwards.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	merged := t.merge()
	t.mu.Unlock()
	merged = t.policy.apply(merged)
	if len(merged) > t.capacity {
		// Keep the newest spans (the highest read indices): drop whole
		// reads from the front so no read is ever half-represented.
		merged = evictOldest(merged, t.capacity)
	}
	return merged
}

// merge moves every buffer's spans into t.merged, keeps it sorted, and
// returns it (empty, not nil, before any span is recorded). New spans
// go into a fresh array, so streams returned earlier stay as they were.
func (t *Trace) merge() []Span {
	added := 0
	for _, b := range t.buffers {
		added += len(b.spans)
	}
	if added == 0 {
		if t.merged == nil {
			t.merged = []Span{}
		}
		return t.merged
	}
	merged := append(make([]Span, 0, len(t.merged)+added), t.merged...)
	for _, b := range t.buffers {
		merged = append(merged, b.spans...)
		b.spans = nil
	}
	// A read's spans live in exactly one buffer (reads are sharded, never
	// split), so (Proc, Read, seq) totally orders the stream: within a
	// read, seq reproduces the engine's emission order.
	sort.Slice(merged, func(i, j int) bool {
		a, b := merged[i], merged[j]
		if a.Proc != b.Proc {
			return a.Proc < b.Proc
		}
		if a.Read != b.Read {
			return a.Read < b.Read
		}
		return a.seq < b.seq
	})
	t.merged = merged
	return merged
}

// evictOldest drops whole-read span groups from the front of the sorted
// stream until at most capacity spans remain.
func evictOldest(spans []Span, capacity int) []Span {
	for len(spans) > capacity {
		// Drop the first read group (stream is sorted by proc then read;
		// the front holds the earliest read of the first proc).
		r, p := spans[0].Read, spans[0].Proc
		i := 0
		for i < len(spans) && spans[i].Read == r && spans[i].Proc == p {
			i++
		}
		spans = spans[i:]
	}
	return spans
}
