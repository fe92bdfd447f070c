// Package metrics is the engine-wide observability layer of the CASA
// reproduction: a lightweight, std-lib-only registry of named counters,
// gauges and histograms that every engine (casa, ert, genax, cpu,
// fmindex, seedex) publishes into under a shared naming scheme.
//
// Names are slash-separated paths of the form
//
//	engine/stage/counter
//
// (e.g. "casa/pivots/filtered_table", "ert/cache/hits",
// "genax/model/seconds"), each segment lower-case [a-z0-9_]+. The
// scheme mirrors the paper's evaluation structure (§6–§7): per-stage
// activity counters feed the Fig 12–15 breakdowns, model gauges carry the
// finalized time/energy numbers.
//
// Determinism contract: counters and histograms are integer-valued and
// additive, so merging any sharding of a workload's per-worker registries
// (Registry.Merge) yields byte-identical totals to a sequential run —
// the same invariant internal/batch maintains for engine Results. Gauges
// are point-in-time values set once from a finalized Result; Merge
// overwrites them with the source value.
//
// Hot-path cost: obtaining a *Counter is a locked map lookup, but engines
// do it once per batch (or hold the pointer); Counter.Add is a single
// atomic add with no allocation.
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// SchemaVersion identifies the JSON document layout emitted by
// Registry.WriteJSON. Bump only on incompatible changes; additions of new
// metric names are not schema changes.
const SchemaVersion = "casa-metrics/v1"

// Counter is a monotonically increasing integer metric. The zero value is
// ready to use; obtain shared instances from Registry.Counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n (n must be >= 0 for the monotonicity
// contract; this is not enforced on the hot path).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a point-in-time float metric (seconds, watts, reads/s). Set
// replaces the value; gauges are written once per run from finalized
// Results, not accumulated.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add shifts the gauge by delta (CAS loop, safe for concurrent use). The
// serving layer uses gauges as live levels — in-flight requests, queue
// depth, open SSE streams — where paired +1/-1 shifts, not one-shot Sets,
// are the natural update. Model gauges keep the set-once discipline.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		v := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, v) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket distribution of integer observations
// (per-read SMEM counts, pivots per read, ...). Buckets are defined by
// ascending upper bounds; an implicit +Inf bucket catches the rest.
// Integer sums keep merges byte-identical regardless of worker order.
type Histogram struct {
	bounds []int64        // ascending upper bounds (inclusive)
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	sum    atomic.Int64
	n      atomic.Int64
}

// Observe records one observation.
func (h *Histogram) Observe(v int64) {
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.n.Add(1)
}

// PowerOfTwoBounds returns the n ascending bounds 1, 2, 4, ..., 2^(n-1)
// — the shared bucket layout of the serving layer's wall-clock duration
// histograms (unit: microseconds; 30 buckets span 1 µs to ~9 min, enough
// for any request this side of a timeout). A shared helper rather than
// per-call-site literals so every duration histogram agrees on bounds
// and Merge never trips over a mismatch.
func PowerOfTwoBounds(n int) []int64 {
	if n < 1 {
		n = 1
	}
	if n > 62 {
		n = 62
	}
	bounds := make([]int64, n)
	for i := range bounds {
		bounds[i] = 1 << i
	}
	return bounds
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.n.Load() }

// Quantile returns an upper-bound estimate of the q-quantile (0 < q <= 1)
// of the recorded observations: the upper bound of the bucket holding the
// rank-⌈q·n⌉ observation. Returns 0 when the histogram is empty. For
// observations in the +Inf bucket the estimate is twice the largest
// finite bound — a deliberate overestimate, never an underestimate, which
// is the safe direction for the backpressure hints derived from it.
func (h *Histogram) Quantile(q float64) int64 {
	return QuantileFromBuckets(h.bounds, h.BucketCounts(), h.n.Load(), q)
}

// QuantileFromBuckets is Histogram.Quantile over an already-frozen
// snapshot (bounds without +Inf, per-bucket counts with the +Inf bucket
// last, total observation count) — the form /v1/stats computes from
// Registry.Snapshots.
func QuantileFromBuckets(bounds, counts []int64, n int64, q float64) int64 {
	if n <= 0 || len(counts) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range counts {
		cum += c
		if cum >= rank {
			if i < len(bounds) {
				return bounds[i]
			}
			break
		}
	}
	// The +Inf bucket (or a snapshot whose counts undershoot n).
	if len(bounds) == 0 {
		return 0
	}
	return 2 * bounds[len(bounds)-1]
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Bounds returns the bucket upper bounds (not including +Inf).
func (h *Histogram) Bounds() []int64 { return append([]int64(nil), h.bounds...) }

// BucketCounts returns the per-bucket counts, the last entry being the
// +Inf bucket.
func (h *Histogram) BucketCounts() []int64 {
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Registry holds the named metrics of one run (or one worker's shard of a
// run). Metric creation is locked; reads and updates of the returned
// instruments are lock-free.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// validName reports whether name follows the engine/stage/counter scheme:
// 2–4 slash-separated segments of [a-z0-9_]+.
func validName(name string) bool {
	segs := strings.Split(name, "/")
	if len(segs) < 2 || len(segs) > 4 {
		return false
	}
	for _, s := range segs {
		if s == "" {
			return false
		}
		for i := 0; i < len(s); i++ {
			c := s[i]
			if !('a' <= c && c <= 'z' || '0' <= c && c <= '9' || c == '_') {
				return false
			}
		}
	}
	return true
}

// checkName panics on malformed names: metric names are compile-time
// constants in engine code, so a bad one is a programming error, not a
// runtime condition.
func checkName(name string) {
	if !validName(name) {
		panic(fmt.Sprintf("metrics: name %q does not match engine/stage/counter ([a-z0-9_]+ segments)", name))
	}
}

// Counter returns the counter registered under name, creating it if
// needed. Panics if name is malformed or already registered as another
// kind.
func (r *Registry) Counter(name string) *Counter {
	checkName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	r.checkKindFree(name, "counter")
	c := &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the gauge registered under name, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	checkName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	r.checkKindFree(name, "gauge")
	g := &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the histogram registered under name, creating it with
// the given ascending bucket bounds if needed. Re-registration with
// different bounds panics.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	checkName(name)
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram %q bounds not ascending", name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.histograms[name]; ok {
		if len(h.bounds) != len(bounds) {
			panic(fmt.Sprintf("metrics: histogram %q re-registered with different bounds", name))
		}
		for i := range bounds {
			if h.bounds[i] != bounds[i] {
				panic(fmt.Sprintf("metrics: histogram %q re-registered with different bounds", name))
			}
		}
		return h
	}
	r.checkKindFree(name, "histogram")
	h := &Histogram{
		bounds: append([]int64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
	r.histograms[name] = h
	return h
}

// checkKindFree panics if name is already taken by a different kind.
// Callers hold r.mu.
func (r *Registry) checkKindFree(name, kind string) {
	if _, ok := r.counters[name]; ok {
		panic(fmt.Sprintf("metrics: %q already registered as counter, requested as %s", name, kind))
	}
	if _, ok := r.gauges[name]; ok {
		panic(fmt.Sprintf("metrics: %q already registered as gauge, requested as %s", name, kind))
	}
	if _, ok := r.histograms[name]; ok {
		panic(fmt.Sprintf("metrics: %q already registered as histogram, requested as %s", name, kind))
	}
}

// Merge folds src into r: counters and histogram buckets add, gauges take
// src's value. Merging the per-worker registries of any sharding of a
// batch — in any order — yields the same totals as a sequential run,
// because every additive metric is integer-valued.
//
// Histograms merge by identity of bounds: if src and r both hold a
// histogram under the same name but with different bucket bounds, Merge
// panics (via Registry.Histogram's re-registration check). Bounds are
// compile-time constants wherever histograms are created, so a
// disagreement is a programming error — silently resampling one layout
// into the other would corrupt the determinism contract.
func (r *Registry) Merge(src *Registry) {
	r.mergePrefixed(src, "")
}

// MergePrefixed folds src into r with every metric name prefixed by
// prefix+"/" — how a serving process accumulates each finished run's
// engine registry into its lifetime registry ("casa/reads/seeded"
// becomes "lifetime/casa/reads/seeded") without colliding with its own
// serving metrics. Names that would exceed the 4-segment limit are
// skipped; the count of skipped names is returned so callers can surface
// the gap instead of silently under-reporting.
func (r *Registry) MergePrefixed(src *Registry, prefix string) int {
	return r.mergePrefixed(src, prefix+"/")
}

func (r *Registry) mergePrefixed(src *Registry, prefix string) int {
	if r == src {
		return 0
	}
	src.mu.Lock()
	names := make([]string, 0, len(src.counters)+len(src.gauges)+len(src.histograms))
	for name := range src.counters {
		names = append(names, name)
	}
	sort.Strings(names)
	type cval struct {
		name string
		v    int64
	}
	cvals := make([]cval, 0, len(names))
	for _, name := range names {
		cvals = append(cvals, cval{name, src.counters[name].Value()})
	}
	type gval struct {
		name string
		v    float64
	}
	gvals := make([]gval, 0, len(src.gauges))
	for name, g := range src.gauges {
		gvals = append(gvals, gval{name, g.Value()})
	}
	type hval struct {
		name   string
		bounds []int64
		counts []int64
		sum    int64
		n      int64
	}
	hvals := make([]hval, 0, len(src.histograms))
	for name, h := range src.histograms {
		hvals = append(hvals, hval{name, h.Bounds(), h.BucketCounts(), h.Sum(), h.Count()})
	}
	src.mu.Unlock()

	skipped := 0
	for _, c := range cvals {
		if name, ok := prefixed(prefix, c.name); ok {
			r.Counter(name).Add(c.v)
		} else {
			skipped++
		}
	}
	for _, g := range gvals {
		if name, ok := prefixed(prefix, g.name); ok {
			r.Gauge(name).Set(g.v)
		} else {
			skipped++
		}
	}
	for _, h := range hvals {
		name, ok := prefixed(prefix, h.name)
		if !ok {
			skipped++
			continue
		}
		dst := r.Histogram(name, h.bounds)
		for i, n := range h.counts {
			dst.counts[i].Add(n)
		}
		dst.sum.Add(h.sum)
		dst.n.Add(h.n)
	}
	return skipped
}

// prefixed joins prefix (either "" or "lifetime/"-style, slash included)
// with name, reporting whether the result still fits the naming scheme.
func prefixed(prefix, name string) (string, bool) {
	if prefix == "" {
		return name, true
	}
	full := prefix + name
	return full, validName(full)
}

// Snapshot is one metric's frozen value, used for deterministic output.
type Snapshot struct {
	Name string
	Kind string // "counter", "gauge" or "histogram"

	Counter int64
	Gauge   float64

	Bounds []int64
	Counts []int64
	Sum    int64
	Count  int64
}

// Snapshots returns every metric's current value, sorted by name.
func (r *Registry) Snapshots() []Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Snapshot, 0, len(r.counters)+len(r.gauges)+len(r.histograms))
	for name, c := range r.counters {
		out = append(out, Snapshot{Name: name, Kind: "counter", Counter: c.Value()})
	}
	for name, g := range r.gauges {
		out = append(out, Snapshot{Name: name, Kind: "gauge", Gauge: g.Value()})
	}
	for name, h := range r.histograms {
		out = append(out, Snapshot{
			Name: name, Kind: "histogram",
			Bounds: h.Bounds(), Counts: h.BucketCounts(), Sum: h.Sum(), Count: h.Count(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// histogramJSON is the JSON shape of one histogram.
type histogramJSON struct {
	Bounds []int64 `json:"bounds"`
	Counts []int64 `json:"counts"`
	Sum    int64   `json:"sum"`
	Count  int64   `json:"count"`
}

// document is the WriteJSON layout (SchemaVersion).
type document struct {
	Schema     string                   `json:"schema"`
	Counters   map[string]int64         `json:"counters"`
	Gauges     map[string]float64       `json:"gauges"`
	Histograms map[string]histogramJSON `json:"histograms,omitempty"`
}

// WriteJSON writes the registry as one JSON document. Output is
// deterministic: encoding/json sorts map keys, and all additive values
// are integers.
func (r *Registry) WriteJSON(w io.Writer) error {
	doc := r.jsonDocument()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// MarshalJSON implements json.Marshaler so a Registry can be embedded in
// larger JSON documents (the casa-smem -json output).
func (r *Registry) MarshalJSON() ([]byte, error) {
	return json.Marshal(r.jsonDocument())
}

func (r *Registry) jsonDocument() document {
	doc := document{
		Schema:   SchemaVersion,
		Counters: map[string]int64{},
		Gauges:   map[string]float64{},
	}
	for _, s := range r.Snapshots() {
		switch s.Kind {
		case "counter":
			doc.Counters[s.Name] = s.Counter
		case "gauge":
			doc.Gauges[s.Name] = s.Gauge
		case "histogram":
			if doc.Histograms == nil {
				doc.Histograms = map[string]histogramJSON{}
			}
			doc.Histograms[s.Name] = histogramJSON{
				Bounds: s.Bounds, Counts: s.Counts, Sum: s.Sum, Count: s.Count,
			}
		}
	}
	return doc
}

// WriteText writes the registry in a Prometheus-style text exposition
// format (slashes become underscores), sorted by name, for the /metrics
// endpoint and the -metrics CLI flag.
func (r *Registry) WriteText(w io.Writer) error {
	for _, s := range r.Snapshots() {
		flat := strings.ReplaceAll(s.Name, "/", "_")
		var err error
		switch s.Kind {
		case "counter":
			_, err = fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", flat, flat, s.Counter)
		case "gauge":
			_, err = fmt.Fprintf(w, "# TYPE %s gauge\n%s %g\n", flat, flat, s.Gauge)
		case "histogram":
			if _, err = fmt.Fprintf(w, "# TYPE %s histogram\n", flat); err != nil {
				return err
			}
			cum := int64(0)
			for i, n := range s.Counts {
				cum += n
				le := "+Inf"
				if i < len(s.Bounds) {
					le = fmt.Sprintf("%d", s.Bounds[i])
				}
				if _, err = fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", flat, le, cum); err != nil {
					return err
				}
			}
			_, err = fmt.Fprintf(w, "%s_sum %d\n%s_count %d\n", flat, s.Sum, flat, s.Count)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Equal reports whether two registries hold the same metrics with the
// same values (the determinism-test comparison).
func Equal(a, b *Registry) bool {
	sa, sb := a.Snapshots(), b.Snapshots()
	if len(sa) != len(sb) {
		return false
	}
	for i := range sa {
		x, y := sa[i], sb[i]
		if x.Name != y.Name || x.Kind != y.Kind || x.Counter != y.Counter ||
			x.Gauge != y.Gauge || x.Sum != y.Sum || x.Count != y.Count ||
			len(x.Bounds) != len(y.Bounds) || len(x.Counts) != len(y.Counts) {
			return false
		}
		for j := range x.Bounds {
			if x.Bounds[j] != y.Bounds[j] {
				return false
			}
		}
		for j := range x.Counts {
			if x.Counts[j] != y.Counts[j] {
				return false
			}
		}
	}
	return true
}

// Diff returns a human-readable description of the first difference
// between two registries, or "" if they are equal. Test helpers use it
// for actionable failure messages.
func Diff(a, b *Registry) string {
	sa, sb := a.Snapshots(), b.Snapshots()
	ia, ib := 0, 0
	for ia < len(sa) || ib < len(sb) {
		switch {
		case ib >= len(sb) || (ia < len(sa) && sa[ia].Name < sb[ib].Name):
			return fmt.Sprintf("metric %q only in first registry", sa[ia].Name)
		case ia >= len(sa) || sa[ia].Name > sb[ib].Name:
			return fmt.Sprintf("metric %q only in second registry", sb[ib].Name)
		default:
			x, y := sa[ia], sb[ib]
			if x.Kind != y.Kind {
				return fmt.Sprintf("%s: kind %s vs %s", x.Name, x.Kind, y.Kind)
			}
			if x.Counter != y.Counter {
				return fmt.Sprintf("%s: %d vs %d", x.Name, x.Counter, y.Counter)
			}
			if x.Gauge != y.Gauge {
				return fmt.Sprintf("%s: %g vs %g", x.Name, x.Gauge, y.Gauge)
			}
			if x.Sum != y.Sum || x.Count != y.Count {
				return fmt.Sprintf("%s: sum/count %d/%d vs %d/%d", x.Name, x.Sum, x.Count, y.Sum, y.Count)
			}
			for j := range x.Counts {
				if x.Counts[j] != y.Counts[j] {
					return fmt.Sprintf("%s: bucket %d: %d vs %d", x.Name, j, x.Counts[j], y.Counts[j])
				}
			}
			ia++
			ib++
		}
	}
	return ""
}
