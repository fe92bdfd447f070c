package trace

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
)

// Chrome trace_event JSON (object format, loadable in Perfetto and
// chrome://tracing) is the file format of both time domains, written by
// one encoder (writeChrome) and read by one decoder (parseChrome): one
// trace_event process per Proc and one thread per Track (pid and tid
// numbered from 1 in sorted label order, named by metadata events), one
// complete ("X") event per span in stream order with its track as cat,
// and otherData.schema telling the domains apart. The domains differ
// only in how a span becomes its event (WriteChrome, WriteChromeWall).
// Output is deterministic for a given span stream.

// chromeDoc is the top-level document of both schemas, as parseChrome
// reads it; writeChrome streams the same document a member at a time.
type chromeDoc struct {
	TraceEvents []chromeEvent   `json:"traceEvents"`
	OtherData   chromeOtherData `json:"otherData"`
}

// chromeOtherData is the document footer. The cycle domain writes the
// schema alone; the wall domain fills in the rest.
type chromeOtherData struct {
	Schema  string `json:"schema"`
	Domain  string `json:"domain,omitempty"`
	Spans   *int   `json:"spans,omitempty"`
	Dropped int64  `json:"dropped,omitempty"`
}

// chromeEvent is one trace_event entry. Args is a pointer to a fixed
// struct so field order (and therefore the output bytes) is stable.
type chromeEvent struct {
	Name string      `json:"name"`
	Cat  string      `json:"cat,omitempty"` // the span's track
	Ph   string      `json:"ph"`
	Ts   int64       `json:"ts"`
	Dur  *int64      `json:"dur,omitempty"`
	Pid  int         `json:"pid"`
	Tid  int         `json:"tid"`
	Args *chromeArgs `json:"args,omitempty"`

	proc string // the span's process label, behind Pid
}

type chromeArgs struct {
	Name   string `json:"name,omitempty"`   // metadata events
	Read   *int   `json:"read,omitempty"`   // cycle-domain spans
	Cycles *int64 `json:"cycles,omitempty"` // cycle-domain spans
	RunID  string `json:"run_id,omitempty"` // wall-domain spans
}

// writeChrome encodes n spans as one trace_event document: span(i, ev)
// sets ev to span i's X event (Name, Cat, Ts, Dur, Args and proc; ev may
// point into caller-owned storage, as it is written before the next
// call). A first pass over the spans collects and numbers the process
// and track labels, whose metadata events lead the document; a second
// pass writes each span's event as it is built. The document streams
// through one buffered writer an event at a time, in the bytes a
// json.Encoder indenting by one space writes for the whole chromeDoc, so
// export holds neither an event slice nor the encoded document.
func writeChrome(w io.Writer, n int, span func(i int, ev *chromeEvent), other chromeOtherData) error {
	type process struct {
		pid  int
		tids map[string]int
	}
	procs := map[string]*process{}
	var ev chromeEvent
	for i := 0; i < n; i++ {
		span(i, &ev)
		p := procs[ev.proc]
		if p == nil {
			p = &process{tids: map[string]int{}}
			procs[ev.proc] = p
		}
		p.tids[ev.Cat] = 0
	}

	bw := bufio.NewWriterSize(w, 64<<10)
	// Each member is encoded into buf, indented for its depth in the
	// document, and copied out without the newline Encode ends it with.
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	member := func(v any) error {
		buf.Reset()
		if err := enc.Encode(v); err != nil {
			return err
		}
		_, err := bw.Write(buf.Bytes()[:buf.Len()-1])
		return err
	}
	enc.SetIndent("  ", " ") // events sit two levels deep
	bw.WriteString("{\n \"traceEvents\": [")
	sep := "\n  "
	event := func(ev *chromeEvent) error {
		bw.WriteString(sep)
		sep = ",\n  "
		return member(ev)
	}
	for i, name := range sortedKeys(procs) {
		p := procs[name]
		p.pid = i + 1
		if err := event(&chromeEvent{Name: "process_name", Ph: "M", Pid: p.pid, Args: &chromeArgs{Name: name}}); err != nil {
			return err
		}
		for j, track := range sortedKeys(p.tids) {
			p.tids[track] = j + 1
			if err := event(&chromeEvent{Name: "thread_name", Ph: "M", Pid: p.pid, Tid: j + 1, Args: &chromeArgs{Name: track}}); err != nil {
				return err
			}
		}
	}
	for i := 0; i < n; i++ {
		span(i, &ev)
		p := procs[ev.proc]
		ev.Ph, ev.Pid, ev.Tid = "X", p.pid, p.tids[ev.Cat]
		if err := event(&ev); err != nil {
			return err
		}
	}
	if n > 0 {
		bw.WriteString("\n ")
	}
	bw.WriteString("],\n \"otherData\": ")
	enc.SetIndent(" ", " ")
	if err := member(other); err != nil {
		return err
	}
	bw.WriteString("\n}\n")
	return bw.Flush()
}

// parseChrome decodes a trace_event document of the given schema into its
// X events, in file order, with proc and Cat set to the process and
// thread names the metadata events gave their pid and tid.
func parseChrome(data []byte, schema string) ([]chromeEvent, chromeOtherData, error) {
	var doc chromeDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, doc.OtherData, fmt.Errorf("trace: chrome parse: %w", err)
	}
	if doc.OtherData.Schema != schema {
		return nil, doc.OtherData, fmt.Errorf("trace: chrome schema %q, want %q", doc.OtherData.Schema, schema)
	}
	procOf := map[int]string{}
	trackOf := map[[2]int]string{}
	spans := doc.TraceEvents[:0]
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Args == nil {
				continue
			}
			switch ev.Name {
			case "process_name":
				procOf[ev.Pid] = ev.Args.Name
			case "thread_name":
				trackOf[[2]int{ev.Pid, ev.Tid}] = ev.Args.Name
			}
		case "X":
			ev.proc, ev.Cat = procOf[ev.Pid], trackOf[[2]int{ev.Pid, ev.Tid}]
			if ev.proc == "" || ev.Cat == "" {
				return nil, doc.OtherData, fmt.Errorf("trace: event %q references pid %d / tid %d with no metadata", ev.Name, ev.Pid, ev.Tid)
			}
			if ev.Dur == nil {
				ev.Dur = new(int64)
			}
			spans = append(spans, ev)
		}
	}
	return spans, doc.OtherData, nil
}

// WriteChrome writes a cycle-domain span stream as a casa-trace/v1
// document. One modelled cycle renders as one microsecond (trace_event's
// ts/dur unit), so Perfetto's time axis reads in cycles. Each process's
// reads are laid out back to back (read r starts where read r-1's
// timeline ended), which keeps every duration and each read's structure
// while giving one non-overlapping waterfall per process; args carry the
// read index and the cycles. spans must be in the deterministic merged
// order Trace.Spans returns, so streams that are identical across worker
// counts give identical bytes.
func WriteChrome(w io.Writer, spans []Span) error {
	base := readBases(spans)
	var args chromeArgs
	var read int
	args.Read = &read
	return writeChrome(w, len(spans), func(i int, ev *chromeEvent) {
		s := &spans[i]
		args.Cycles, read = &s.Dur, int(s.Read)
		*ev = chromeEvent{proc: s.Proc, Name: s.Name, Cat: s.Track, Ts: s.Start + base[procRead{s.Proc, s.Read}], Dur: &s.Dur, Args: &args}
	}, chromeOtherData{Schema: SchemaVersion})
}

type procRead struct {
	proc string
	read int32
}

// readBases returns each read's timeline offset within its process:
// reads are laid out back to back in index order, each occupying its
// read-local timeline length (its latest span end).
func readBases(spans []Span) map[procRead]int64 {
	ends := map[procRead]int64{}
	for _, s := range spans {
		k := procRead{s.Proc, s.Read}
		if e := s.End(); e > ends[k] {
			ends[k] = e
		}
	}
	keys := make([]procRead, 0, len(ends))
	for k := range ends {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		return cmp.Or(cmp.Compare(keys[i].proc, keys[j].proc), cmp.Compare(keys[i].read, keys[j].read)) < 0
	})
	base := make(map[procRead]int64, len(keys))
	var cursor int64
	for i, k := range keys {
		if i > 0 && k.proc != keys[i-1].proc {
			cursor = 0
		}
		base[k] = cursor
		cursor += ends[k]
	}
	return base
}

// ParseChrome decodes a casa-trace/v1 document back into a span stream.
// Timestamps come back absolute (the per-read base offsets stay baked
// in), which is what the casa-trace analyses operate on; Read and Dur
// round-trip exactly. Every span belongs to a read, so an event without
// a read arg is refused with ErrNoRead.
func ParseChrome(data []byte) ([]Span, error) {
	events, _, err := parseChrome(data, SchemaVersion)
	if err != nil {
		return nil, err
	}
	spans := make([]Span, len(events))
	for i, ev := range events {
		if ev.Args == nil || ev.Args.Read == nil {
			return nil, fmt.Errorf("trace: event %d %q on %s/%s: %w", i, ev.Name, ev.proc, ev.Cat, ErrNoRead)
		}
		spans[i] = Span{Proc: ev.proc, Track: ev.Cat, Name: ev.Name, Read: int32(*ev.Args.Read), Start: ev.Ts, Dur: *ev.Dur}
	}
	return spans, nil
}

// ErrNoRead is ParseChrome's error for a casa-trace/v1 event that names
// no read.
var ErrNoRead = errors.New("no read arg")

// WriteChromeWall writes a wall-clock span stream as a casa-walltrace/v1
// document, with each span's run ID as its event name and timestamps
// rebased onto the earliest span. dropped is the recorder's eviction
// count (WallTrace.Dropped).
func WriteChromeWall(w io.Writer, spans []WallSpan, dropped int64) error {
	var epoch int64
	for i, s := range spans {
		if i == 0 || s.Start < epoch {
			epoch = s.Start
		}
	}
	var args chromeArgs
	n := len(spans)
	return writeChrome(w, n, func(i int, ev *chromeEvent) {
		s := &spans[i]
		args.RunID = s.Name
		*ev = chromeEvent{proc: s.Proc, Name: s.Name, Cat: s.Track, Ts: s.Start - epoch, Dur: &s.Dur, Args: &args}
	}, chromeOtherData{Schema: WallSchemaVersion, Domain: "wall", Spans: &n, Dropped: dropped})
}

// ParseChromeWall decodes a casa-walltrace/v1 document back into its
// span stream and eviction count. Timestamps come back as exported —
// rebased onto the stream's earliest span — which is what the wall
// analyses operate on; durations round-trip exactly.
func ParseChromeWall(data []byte) ([]WallSpan, int64, error) {
	events, other, err := parseChrome(data, WallSchemaVersion)
	if err != nil {
		return nil, 0, err
	}
	spans := make([]WallSpan, len(events))
	for i, ev := range events {
		spans[i] = WallSpan{Proc: ev.proc, Track: ev.Cat, Name: ev.Name, Start: ev.Ts, Dur: *ev.Dur}
	}
	return spans, other.Dropped, nil
}

// WriteFile writes a cycle-domain span stream to path as a casa-trace/v1
// document: what every CLI's -trace flag produces.
func WriteFile(path string, spans []Span) error {
	return writeFile(path, func(w io.Writer) error { return WriteChrome(w, spans) })
}

// WriteWallFile writes a wall span stream to path as a casa-walltrace/v1
// document: what the CLIs' -walltrace flag produces.
func WriteWallFile(path string, spans []WallSpan, dropped int64) error {
	return writeFile(path, func(w io.Writer) error { return WriteChromeWall(w, spans, dropped) })
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// ParseWallFile reads a casa-walltrace/v1 file.
func ParseWallFile(path string) ([]WallSpan, int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	return ParseChromeWall(data)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
