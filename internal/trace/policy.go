package trace

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Policy selects which reads' spans survive the merge. System spans
// (Read == SystemRead) are never dropped.
//
// The three policies:
//
//	all        — every read (bounded only by the trace capacity)
//	head:N     — the first N reads of the batch (lowest read indices)
//	slowest:N  — the N reads with the longest modelled timelines
//
// slowest:N ranks a read by the end of its read-local timeline (the max
// Start+Dur over its spans, summed across processes when several engines
// traced the same batch), breaking ties toward the lower read index so
// the selection — like everything else in the trace — is deterministic.
type Policy struct {
	Kind string // "all", "head" or "slowest"
	N    int    // read budget for head/slowest; ignored for all
}

// PolicyAll keeps every read.
var PolicyAll = Policy{Kind: "all"}

// ParsePolicy parses a -trace-sample flag value: "all", "head:N" or
// "slowest:N" with N >= 1.
func ParsePolicy(s string) (Policy, error) {
	if s == "" || s == "all" {
		return PolicyAll, nil
	}
	kind, ns, ok := strings.Cut(s, ":")
	if ok && (kind == "head" || kind == "slowest") {
		n, err := strconv.Atoi(ns)
		if err == nil && n >= 1 {
			return Policy{Kind: kind, N: n}, nil
		}
	}
	return Policy{}, fmt.Errorf("trace: bad sampling policy %q (want all, head:N or slowest:N)", s)
}

// String formats the policy in ParsePolicy's syntax.
func (p Policy) String() string {
	if p.Kind == "" || p.Kind == "all" {
		return "all"
	}
	return fmt.Sprintf("%s:%d", p.Kind, p.N)
}

// apply filters a merged, sorted span stream down to the selected reads.
func (p Policy) apply(spans []Span) []Span {
	switch p.Kind {
	case "", "all":
		return spans
	case "head":
		return filterReads(spans, headReads(spans, p.N))
	case "slowest":
		return filterReads(spans, slowestReads(spans, p.N))
	default:
		return spans
	}
}

// headReads returns the set of the N lowest read indices present.
func headReads(spans []Span, n int) map[int32]bool {
	present := distinctReads(spans)
	sort.Slice(present, func(i, j int) bool { return present[i] < present[j] })
	if len(present) > n {
		present = present[:n]
	}
	return toSet(present)
}

// slowestReads returns the set of the N reads with the longest timelines.
func slowestReads(spans []Span, n int) map[int32]bool {
	ends := make(map[int32]int64)
	for _, s := range spans {
		if s.Read == SystemRead {
			continue
		}
		if e := s.End(); e > ends[s.Read] {
			ends[s.Read] = e
		}
	}
	reads := make([]int32, 0, len(ends))
	for r := range ends {
		reads = append(reads, r)
	}
	sort.Slice(reads, func(i, j int) bool {
		a, b := reads[i], reads[j]
		if ends[a] != ends[b] {
			return ends[a] > ends[b]
		}
		return a < b
	})
	if len(reads) > n {
		reads = reads[:n]
	}
	return toSet(reads)
}

func distinctReads(spans []Span) []int32 {
	seen := make(map[int32]bool)
	var out []int32
	for _, s := range spans {
		if s.Read != SystemRead && !seen[s.Read] {
			seen[s.Read] = true
			out = append(out, s.Read)
		}
	}
	return out
}

func toSet(reads []int32) map[int32]bool {
	set := make(map[int32]bool, len(reads))
	for _, r := range reads {
		set[r] = true
	}
	return set
}

// filterReads keeps system spans and the spans of the selected reads,
// preserving order.
func filterReads(spans []Span, keep map[int32]bool) []Span {
	out := spans[:0:0]
	for _, s := range spans {
		if s.Read == SystemRead || keep[s.Read] {
			out = append(out, s)
		}
	}
	return out
}
