// Package shard composes any registered seeding engine into a sharded
// engine over a partitioned reference: the flat reference is split into
// overlapping shards, one inner engine (index) is built — or loaded —
// per shard, every read is seeded against every shard, and the per-read
// SMEM sets are merged back into the flat engine's answer.
//
// This is the ROADMAP's genome-scale rung: a reference too large to
// index in one piece is handled as independently built (and
// independently persistable) shards, in the BioSEAL/PRinS spirit of
// processing each partition where it lives. The paper's own accelerator
// partitions internally for capacity (§4.1); sharding lifts the same
// idea above the engine abstraction so every persisting engine gets it.
//
// # Geometry
//
// For n reference bases, S requested shards and overlap V, shard i
// covers [i*step, min(i*step+step+V, n)) with step = max(ceil(n/S), V).
// Forcing step >= V guarantees adjacent shards overlap by at most V and
// non-adjacent shards are disjoint (no base is covered three times), so
// the intersection windows W_i = shard_i ∩ shard_{i+1} have length <= V
// and tile at most pairwise.
//
// # Correctness contract
//
// Sharding is lossless when V is at least the longest read seeded:
// every read interval (length <= read length <= V) then occurs fully
// inside at least one shard, so
//
//   - a globally supermaximal match is reported as a shard-local SMEM
//     by every shard containing one of its occurrences (its one-base
//     extensions occur nowhere globally, hence nowhere in any shard),
//   - a shard-local SMEM that is not globally supermaximal is strictly
//     contained in some globally supermaximal interval, which some
//     shard reports — so a containment filter over the union removes
//     exactly the non-global candidates, and
//   - summing per-shard hit counts double-counts exactly the
//     occurrences lying fully inside an intersection window, each seen
//     by the two adjacent shards; subtracting one direct occurrence
//     count per window restores the flat total.
//
// The merge therefore equals the flat engine's SMEM set whenever the
// inner engine reports exact SMEM sets (Options.Exact, or the exact
// engines); the registry conformance suite and FuzzSMEMEnginesAgree
// pin sharded-vs-flat equality across shard counts and worker counts.
package shard

import (
	"encoding/binary"
	"fmt"
	"io"

	"casa/internal/dna"
	"casa/internal/engine"
	"casa/internal/idxio"
	"casa/internal/metrics"
	"casa/internal/smem"
	"casa/internal/trace"
)

// Defaults for Options.Shards and Options.ShardOverlap. The overlap
// default comfortably exceeds short-read lengths; long-read workloads
// must raise it to their read length.
const (
	DefaultShards  = 2
	DefaultOverlap = 512
)

// Sharded seeds reads against per-shard inner engines and merges the
// results; it implements every optional engine capability by forwarding
// to the inners (reporting zero work where an inner lacks the
// capability, mirroring how the flat harnesses probe dynamically).
type Sharded struct {
	name    string
	factory engine.Factory // the inner engine's factory
	opt     engine.Options // construction options, applied per shard

	// Read-only after construction, shared across clones.
	overlap  int
	starts   []int64
	lens     []int64
	windows  []dna.Sequence // shard-intersection contents, len = shards-1
	winStart []int64
	names    []string // per-shard trace span names

	inners []engine.Engine

	// Per-clone scratch for the allocation-free per-read path.
	seeders []engine.ReadSeeder
	scratch engine.Seeds
	candF   []smem.Match
	candR   []smem.Match
	rc      dna.Sequence
}

// geometry computes shard start/length pairs for n bases.
func geometry(n, shards, overlap int) (starts, lens []int64, V int) {
	S := shards
	if S <= 0 {
		S = DefaultShards
	}
	V = overlap
	if V <= 0 {
		V = DefaultOverlap
	}
	step := (n + S - 1) / S
	if step < V {
		step = V
	}
	if step < 1 {
		step = 1 // n == 0: a single empty shard
	}
	S = (n + step - 1) / step
	if S < 1 {
		S = 1
	}
	for i := 0; i < S; i++ {
		s := i * step
		e := min(s+step+V, n)
		starts = append(starts, int64(s))
		lens = append(lens, int64(e-s))
	}
	return starts, lens, V
}

// build derives the shared derived state (windows, span names) and
// constructs the inner engines over the shard slices of ref.
func newSharded(f engine.Factory, ref dna.Sequence, opt engine.Options) (*Sharded, error) {
	s := &Sharded{name: "sharded:" + f.Name, factory: f, opt: opt}
	s.starts, s.lens, s.overlap = geometry(len(ref), opt.Shards, opt.ShardOverlap)
	for i := range s.starts {
		lo, hi := s.starts[i], s.starts[i]+s.lens[i]
		inner, err := f.New(ref[lo:hi], opt)
		if err != nil {
			return nil, fmt.Errorf("shard %d [%d,%d): %w", i, lo, hi, err)
		}
		s.inners = append(s.inners, inner)
	}
	for i := range s.starts {
		if i+1 < len(s.starts) {
			lo, hi := s.starts[i+1], s.starts[i]+s.lens[i]
			s.windows = append(s.windows, ref[lo:hi])
			s.winStart = append(s.winStart, lo)
		}
	}
	s.finish()
	return s, nil
}

// finish computes the derived per-shard state (span names, the seeder
// table) once the geometry and inner engines are in place.
func (s *Sharded) finish() {
	s.names = s.names[:0]
	for i := range s.starts {
		s.names = append(s.names,
			fmt.Sprintf("shard %d [%d,%d)", i, s.starts[i], s.starts[i]+s.lens[i]))
	}
	s.seeders = s.seeders[:0]
	for _, inner := range s.inners {
		rs, _ := inner.(engine.ReadSeeder)
		s.seeders = append(s.seeders, rs)
	}
}

// Name implements Engine.
func (s *Sharded) Name() string { return s.name }

// Clone implements Engine: inner clones share the read-only indexes;
// the merge scratch is per-clone.
func (s *Sharded) Clone() engine.Engine {
	c := &Sharded{
		name: s.name, factory: s.factory, opt: s.opt,
		overlap: s.overlap, starts: s.starts, lens: s.lens,
		windows: s.windows, winStart: s.winStart, names: s.names,
	}
	for _, inner := range s.inners {
		c.inners = append(c.inners, inner.Clone())
	}
	for _, inner := range c.inners {
		rs, _ := inner.(engine.ReadSeeder)
		c.seeders = append(c.seeders, rs)
	}
	return c
}

// activity is one batch shard's record: the inner engines' activities
// in reference-shard order.
type activity struct {
	acts  []engine.Activity
	reads int
}

// PublishMetrics folds every inner activity's counters in shard order;
// counters are additive, so the totals match a flat run over the
// concatenated shards.
func (a *activity) PublishMetrics(reg *metrics.Registry) {
	for _, sa := range a.acts {
		sa.PublishMetrics(reg)
	}
}

// SeedTrace implements Engine: every read is seeded against every
// reference shard. The sharded engine emits one unit span per
// (read, shard) on its own "shard" track — inner tracing is disabled,
// since several inner engines writing one buffer would interleave
// per-read spans in ways trace.Validate rejects.
func (s *Sharded) SeedTrace(reads []dna.Sequence, tb *trace.Buffer, base int) engine.Activity {
	a := &activity{reads: len(reads)}
	for j, inner := range s.inners {
		a.acts = append(a.acts, inner.SeedTrace(reads, nil, base))
		if tb != nil {
			for i := range reads {
				tb.Emit(base+i, "shard", s.names[j], int64(j), 1)
			}
		}
	}
	return a
}

// result carries the merged per-read SMEM sets plus the aggregated
// model numbers of the inner results.
type result struct {
	smems    [][]smem.Match
	model    engine.Model
	hasModel bool
}

// PublishModelMetrics publishes the aggregate model under the sharded
// engine's own names. The inner results' gauges are not forwarded:
// model gauges are set-once values, and S shards overwriting one name
// would leave the last shard's number masquerading as the run's.
func (r *result) PublishModelMetrics(reg *metrics.Registry) {
	if !r.hasModel {
		return
	}
	reg.Gauge("shard/model/seconds").Set(r.model.Seconds)
	reg.Gauge("shard/model/reads_per_s").Set(r.model.ReadsPerS)
	if r.model.Cycles > 0 {
		reg.Gauge("shard/model/cycles").Set(float64(r.model.Cycles))
	}
}

// Reduce implements Engine: batch-shard activities (one per pool
// worker chunk, in read order) are transposed to reference-shard order,
// each inner engine reduces its own activities — on the origin
// instance, preserving order-sensitive model state — and the per-read
// SMEM sets are merged.
func (s *Sharded) Reduce(reads []dna.Sequence, acts []engine.Activity) engine.Result {
	perShard := make([][]engine.Activity, len(s.inners))
	for _, a := range acts {
		sa := a.(*activity)
		for j, inner := range sa.acts {
			perShard[j] = append(perShard[j], inner)
		}
	}
	res := &result{smems: make([][]smem.Match, len(reads))}
	shardSMEMs := make([][][]smem.Match, len(s.inners))
	for j, inner := range s.inners {
		ir := inner.Reduce(reads, perShard[j])
		shardSMEMs[j] = inner.SMEMs(ir)
		if m, ok := inner.(engine.Modeler); ok {
			im := m.Model(ir)
			res.model.Seconds += im.Seconds
			res.model.Cycles += im.Cycles
			res.hasModel = true
		}
	}
	if res.hasModel && res.model.Seconds > 0 {
		res.model.ReadsPerS = float64(len(reads)) / res.model.Seconds
	}
	var buf, out []smem.Match
	for i, read := range reads {
		buf = buf[:0]
		for j := range s.inners {
			buf = append(buf, shardSMEMs[j][i]...)
		}
		out = s.mergeAppend(out[:0], buf, read)
		res.smems[i] = smem.Retain(out)
	}
	return res
}

// SMEMs implements Engine.
func (s *Sharded) SMEMs(res engine.Result) [][]smem.Match {
	return res.(*result).smems
}

// mergeAppend merges the concatenated shard-local SMEM candidates of
// one read (on one strand) into the flat engine's answer, appending to
// dst: sort, sum hit counts of identical intervals, drop intervals
// contained in an earlier (longer) one, and subtract each window's
// direct occurrence count to undo pair double-counting. cand is
// reordered in place. Allocation-free given capacity in dst.
func (s *Sharded) mergeAppend(dst []smem.Match, cand []smem.Match, strand dna.Sequence) []smem.Match {
	if len(s.inners) == 1 {
		return append(dst, cand...)
	}
	smem.SortCover(cand)
	maxEnd := -1
	for i := 0; i < len(cand); {
		m := cand[i]
		i++
		for i < len(cand) && cand[i].Start == m.Start && cand[i].End == m.End {
			m.Hits += cand[i].Hits
			i++
		}
		if m.End <= maxEnd {
			continue // strictly contained in an earlier interval
		}
		maxEnd = m.End
		pat := strand[m.Start : m.End+1]
		for _, w := range s.windows {
			m.Hits -= countOccurrences(w, pat)
		}
		dst = append(dst, m)
	}
	return dst
}

// countOccurrences counts the occurrences of pat fully inside win by
// direct scan; windows are at most overlap bases, so this is bounded
// work per merged match.
func countOccurrences(win, pat dna.Sequence) int {
	n := 0
scan:
	for i := 0; i+len(pat) <= len(win); i++ {
		for j, b := range pat {
			if win[i+j] != b {
				continue scan
			}
		}
		n++
	}
	return n
}

// SeedReadInto implements engine.ReadSeeder when every inner engine
// does: each shard seeds into shared scratch and the candidates merge
// into dst. Any inner without the capability (or refusing dynamically)
// makes the whole composite refuse, leaving dst untouched.
func (s *Sharded) SeedReadInto(dst *engine.Seeds, read dna.Sequence) bool {
	for _, rs := range s.seeders {
		if rs == nil {
			return false
		}
	}
	s.candF = s.candF[:0]
	s.candR = s.candR[:0]
	for _, rs := range s.seeders {
		s.scratch.Forward = s.scratch.Forward[:0]
		s.scratch.Reverse = s.scratch.Reverse[:0]
		if !rs.SeedReadInto(&s.scratch, read) {
			return false
		}
		s.candF = append(s.candF, s.scratch.Forward...)
		s.candR = append(s.candR, s.scratch.Reverse...)
	}
	dst.Forward = s.mergeAppend(dst.Forward[:0], s.candF, read)
	s.rc = read.AppendReverseComplement(s.rc[:0])
	dst.Reverse = s.mergeAppend(dst.Reverse[:0], s.candR, s.rc)
	return true
}

// Model implements engine.Modeler by forwarding to Reduce's aggregation
// (zero when no inner engine has a timing model).
func (s *Sharded) Model(res engine.Result) engine.Model {
	return res.(*result).model
}

// ActivityCycles implements engine.CycleCoster: the summed modelled
// cycles of the inner activities (zero for model-less inners).
func (s *Sharded) ActivityCycles(act engine.Activity) int64 {
	var total int64
	a := act.(*activity)
	for j, inner := range s.inners {
		if cc, ok := inner.(engine.CycleCoster); ok {
			total += cc.ActivityCycles(a.acts[j])
		}
	}
	return total
}

// Unwrap exposes the inner engines.
func (s *Sharded) Unwrap() any { return s.inners }

// Shards returns the shard count (for tests and diagnostics).
func (s *Sharded) Shards() int { return len(s.inners) }

// SaveIndex implements engine.IndexPersister: a geometry section (shard
// layout plus the window contents the merge needs), then each inner
// engine's own sections under a "shard<i>/" prefix.
func (s *Sharded) SaveIndex(w *idxio.Writer) error {
	if err := w.Section("shard/geometry", func(sw io.Writer) error {
		return s.writeGeometry(sw)
	}); err != nil {
		return err
	}
	for j, inner := range s.inners {
		p, ok := inner.(engine.IndexPersister)
		if !ok {
			return fmt.Errorf("shard: inner engine %s does not support index persistence", inner.Name())
		}
		if err := p.SaveIndex(w.Prefixed(fmt.Sprintf("shard%d/", j))); err != nil {
			return err
		}
	}
	return nil
}

// LoadIndex implements engine.IndexPersister on a factory NewEmpty
// instance: geometry first, then one inner engine per shard.
func (s *Sharded) LoadIndex(r *idxio.Reader) error {
	if s.factory.NewEmpty == nil {
		return fmt.Errorf("shard: inner engine %s does not support index persistence", s.factory.Name)
	}
	sec, err := r.Section("shard/geometry")
	if err != nil {
		return err
	}
	if err := s.readGeometry(sec); err != nil {
		return fmt.Errorf("shard: section %q: %w", "shard/geometry", err)
	}
	s.inners = s.inners[:0]
	for j := range s.starts {
		inner, err := s.factory.NewEmpty(s.opt)
		if err != nil {
			return err
		}
		p, ok := inner.(engine.IndexPersister)
		if !ok {
			return fmt.Errorf("shard: inner engine %s does not support index persistence", s.factory.Name)
		}
		if err := p.LoadIndex(r.Prefixed(fmt.Sprintf("shard%d/", j))); err != nil {
			return err
		}
		s.inners = append(s.inners, inner)
	}
	// Window contents were restored by readGeometry; recompute the
	// derived state.
	s.finish()
	return nil
}

// Geometry payload, little-endian:
//
//	u64 overlap | u64 shards | shards x (u64 start, u64 len)
//	| (shards-1) x (u64 winStart, u64 winLen, ceil(winLen/4) packed bases)
func (s *Sharded) writeGeometry(w io.Writer) error {
	var buf []byte
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.overlap))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(s.starts)))
	for i := range s.starts {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(s.starts[i]))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(s.lens[i]))
	}
	for i, win := range s.windows {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(s.winStart[i]))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(win)))
		for j := 0; j < len(win); j += 4 {
			var b byte
			for k := 0; k < 4 && j+k < len(win); k++ {
				b |= byte(win[j+k]) << uint(2*k)
			}
			buf = append(buf, b)
		}
	}
	_, err := w.Write(buf)
	return err
}

func (s *Sharded) readGeometry(r io.Reader) error {
	var u [16]byte
	if _, err := io.ReadFull(r, u[:]); err != nil {
		return err
	}
	s.overlap = int(binary.LittleEndian.Uint64(u[0:]))
	shards := binary.LittleEndian.Uint64(u[8:])
	if shards == 0 || shards > 1<<20 {
		return fmt.Errorf("implausible shard count %d", shards)
	}
	s.starts, s.lens = s.starts[:0], s.lens[:0]
	for i := uint64(0); i < shards; i++ {
		if _, err := io.ReadFull(r, u[:]); err != nil {
			return err
		}
		s.starts = append(s.starts, int64(binary.LittleEndian.Uint64(u[0:])))
		s.lens = append(s.lens, int64(binary.LittleEndian.Uint64(u[8:])))
	}
	s.windows, s.winStart = s.windows[:0], s.winStart[:0]
	for i := uint64(0); i+1 < shards; i++ {
		if _, err := io.ReadFull(r, u[:]); err != nil {
			return err
		}
		s.winStart = append(s.winStart, int64(binary.LittleEndian.Uint64(u[0:])))
		winLen := binary.LittleEndian.Uint64(u[8:])
		if winLen > 1<<32 {
			return fmt.Errorf("implausible window length %d", winLen)
		}
		win := make(dna.Sequence, 0, winLen)
		var chunk [4096]byte
		for read := uint64(0); read < (winLen+3)/4; {
			c := min(int((winLen+3)/4-read), len(chunk))
			if _, err := io.ReadFull(r, chunk[:c]); err != nil {
				return err
			}
			for _, b := range chunk[:c] {
				for k := 0; k < 4 && uint64(len(win)) < winLen; k++ {
					win = append(win, dna.Base(b>>uint(2*k))&3)
				}
			}
			read += uint64(c)
		}
		s.windows = append(s.windows, win)
	}
	return nil
}
