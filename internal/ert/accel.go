package ert

import (
	"casa/internal/dna"
	"casa/internal/dram"
	"casa/internal/energy"
	"casa/internal/smem"
	"casa/internal/trace"
)

// AccelConfig sets the ASIC-ERT performance model: 16 seeding machines
// with a 4 MB k-mer reuse cache in front of a dedicated DDR4 index
// (§6: "16 seeding machines with 4MB k-mer reuse cache").
type AccelConfig struct {
	Index         Config
	Machines      int     // parallel seeding machines (16)
	CacheBytes    int64   // k-mer reuse cache capacity (4 MB)
	RootBytes     int64   // bytes per cached root entry
	FetchBytes    int64   // bytes per tree-node/index fetch (DRAM burst)
	BasesPerFetch int     // tree bases resolved per DRAM fetch (ERT packs multi-base nodes into 64 B lines)
	MLP           float64 // memory-level parallelism per machine
	OnChipWatts   float64 // seeding machines + cache average power
	OnChipAreaMM  float64 // seeding machines + cache area
}

// DefaultAccelConfig returns the paper's ASIC-ERT evaluation setup.
func DefaultAccelConfig() AccelConfig {
	return AccelConfig{
		Index:         DefaultConfig(),
		Machines:      16,
		CacheBytes:    4 << 20,
		RootBytes:     64,
		FetchBytes:    64,
		BasesPerFetch: 8,
		MLP:           2,
		OnChipWatts:   12.0, // ASIC-ERT on-chip power (~47% of total is DRAM)
		OnChipAreaMM:  60,
	}
}

// Accelerator is the ASIC-ERT model: the real ERT index for behaviour,
// plus DRAM-traffic-driven timing and power.
type Accelerator struct {
	cfg   AccelConfig
	index *Index
	// cacheEntries is the reuse cache's capacity in root entries. Only
	// Reduce's sequential replay holds a cache; seeding never touches it.
	cacheEntries int
}

// NewAccelerator builds the ERT index over ref.
func NewAccelerator(ref dna.Sequence, cfg AccelConfig) (*Accelerator, error) {
	ix, err := Build(ref, cfg.Index)
	if err != nil {
		return nil, err
	}
	return &Accelerator{cfg: cfg, index: ix, cacheEntries: int(cfg.CacheBytes / cfg.RootBytes)}, nil
}

// Index exposes the underlying index.
func (a *Accelerator) Index() *Index { return a.index }

// Clone returns an accelerator sharing the ERT index's immutable trees
// with fresh activity counters. Clones are the per-worker engines of
// batch seeding; the shared reuse-cache accounting is replayed
// sequentially in Reduce, so clone-parallel runs report the same hit
// rates as a sequential one.
func (a *Accelerator) Clone() *Accelerator {
	return &Accelerator{cfg: a.cfg, index: a.index.Clone(), cacheEntries: a.cacheEntries}
}

// Result is the outcome of an ERT seeding run.
type Result struct {
	Reads      [][]smem.Match // forward-strand SMEMs per read
	Rev        [][]smem.Match // reverse-strand SMEMs per read
	Stats      Stats
	CacheHits  int64
	CacheMiss  int64
	Seconds    float64
	DRAM       *dram.Traffic
	Energy     energy.Report
	Throughput float64
	ReadsPerMJ float64
}

// Activity is the raw, additive outcome of seeding a batch of reads: the
// per-read SMEM results of both strands plus the index-search counters
// and the read-stream bytes. Activities of disjoint sub-batches reduce
// (Reduce) to a Result identical to a sequential run; the reuse-cache
// model, whose hit rates depend on read order, is replayed inside Reduce
// over the reads each activity keeps rather than counted here.
type Activity struct {
	Reads     [][]smem.Match
	Rev       [][]smem.Match
	Stats     Stats
	ReadBytes int64
	// seqs is the seeded reads slice itself, not a copy, for Reduce's
	// reuse-cache replay.
	seqs []dna.Sequence
}

// SeedReads seeds every read (both strands) and models time and power.
// It is exactly Reduce(Seed(reads)); use Seed and Reduce directly to
// split a batch across worker-owned Clones.
func (a *Accelerator) SeedReads(reads []dna.Sequence) *Result {
	return a.Reduce(a.Seed(reads))
}

// Seed runs the behavioural ERT search for every read (both strands) and
// returns the raw activity. Seed mutates only this accelerator's index
// counters: concurrent calls on distinct Clones are safe.
func (a *Accelerator) Seed(reads []dna.Sequence) *Activity {
	return a.SeedTrace(reads, nil, 0)
}

// SeedTrace is Seed with cycle-domain tracing: when tb is non-nil, every
// read gets "fwd" and "rev" spans on the "seed" track, with read-local
// timestamps in modelled DRAM fetches (tree-node fetches converted at
// BasesPerFetch, plus reference verifies) — the unit the ERT timing model
// is latency-bound on. Reuse-cache misses are order-sensitive and counted
// in Reduce, so they are not in per-read durations. Reads are keyed
// base+i so batch shards merge worker-count independently.
func (a *Accelerator) SeedTrace(reads []dna.Sequence, tb *trace.Buffer, base int) *Activity {
	act := &Activity{seqs: reads}
	start := a.index.Stats
	for i, r := range reads {
		before := a.index.Stats
		act.Reads = append(act.Reads, a.index.FindSMEMs(r, a.cfg.Index.MinSMEM))
		if tb != nil {
			fwd := a.fetchWork(diff(a.index.Stats, before))
			before = a.index.Stats
			act.Rev = append(act.Rev, a.index.FindSMEMs(r.ReverseComplement(), a.cfg.Index.MinSMEM))
			rev := a.fetchWork(diff(a.index.Stats, before))
			tb.Emit(base+i, "seed", "fwd", 0, fwd)
			tb.Emit(base+i, "seed", "rev", fwd, rev)
		} else {
			act.Rev = append(act.Rev, a.index.FindSMEMs(r.ReverseComplement(), a.cfg.Index.MinSMEM))
		}
		act.ReadBytes += int64((len(r) + 3) / 4)
	}
	act.Stats = diff(a.index.Stats, start)
	return act
}

// fetchWork converts an activity delta into modelled DRAM fetches, the
// same conversion Reduce applies to the batch totals (minus the
// order-sensitive reuse-cache misses).
func (a *Accelerator) fetchWork(d Stats) int64 {
	perFetch := int64(a.cfg.BasesPerFetch)
	if perFetch < 1 {
		perFetch = 1
	}
	return (d.NodeFetches+perFetch-1)/perFetch + d.RefFetches
}

// Reduce folds the Activities of disjoint sub-batches (in input order)
// into one finalized Result. The k-mer reuse cache is replayed over the
// activities' reads sequentially, in activity order, starting cold, so
// cache hit rates — and therefore DRAM traffic, time and energy — are
// identical no matter how the batch was sharded (a per-worker cache
// would fabricate hit rates no real read stream has).
func (a *Accelerator) Reduce(acts ...*Activity) *Result {
	res := &Result{DRAM: dram.NewTraffic(dram.ERTConfig())}
	var readBytes int64
	k := a.cfg.Index.K
	accesses := 0 // reuse-cache accesses: one per pivot k-mer per strand
	for _, act := range acts {
		res.Reads = append(res.Reads, act.Reads...)
		res.Rev = append(res.Rev, act.Rev...)
		res.Stats.add(act.Stats)
		readBytes += act.ReadBytes
		for _, r := range act.seqs {
			accesses += 2 * max(len(r)-k+1, 0)
		}
	}

	// Reuse-cache replay, in batch order, exactly as the seeding machines
	// stream the reads. The cache never holds more keys than the replay
	// accesses, so its table is sized for the smaller of the two.
	cache := newLRU(a.cacheEntries, accesses)
	var hits, miss int64
	countStrand := func(read dna.Sequence) {
		for i := 0; i+k <= len(read); i++ {
			if cache.access(dna.PackKmer(read, i, k)) {
				hits++
			} else {
				miss++
			}
		}
	}
	var rc dna.Sequence
	for _, act := range acts {
		for _, r := range act.seqs {
			countStrand(r)
			rc = r.AppendReverseComplement(rc[:0])
			countStrand(rc)
		}
	}
	res.CacheHits, res.CacheMiss = hits, miss

	// DRAM traffic: the single-base trie levels of the model map onto
	// ERT's multi-base nodes (one 64 B line resolves several bases), so
	// node visits convert to fetches at BasesPerFetch; every reference
	// verify and root miss is its own random burst; reads stream in once.
	randomFetches := a.fetchWork(res.Stats) + miss
	res.DRAM.RandomAccesses += randomFetches
	res.DRAM.BytesRead += randomFetches * a.cfg.FetchBytes
	res.DRAM.Read(readBytes)

	// Time: the random-access latency is overlapped across machines and
	// each machine's memory-level parallelism; the stream bandwidth is the
	// other bound.
	cfg := res.DRAM.Config()
	latencyBound := cfg.RandAccessSeconds(randomFetches) / (float64(a.cfg.Machines) * a.cfg.MLP)
	bwBound := cfg.TransferSeconds(res.DRAM.BytesRead)
	res.Seconds = latencyBound
	if bwBound > res.Seconds {
		res.Seconds = bwBound
	}

	m := energy.NewMeter()
	m.Register("seeding machines + reuse cache", a.cfg.OnChipWatts, a.cfg.OnChipAreaMM)
	m.ChargeJ("DDR4 (64GB index)", res.DRAM.DynamicJ())
	m.Register("DDR4 (64GB index)", res.DRAM.BackgroundW(), 0)
	m.Register("DRAM controller PHY", cfg.PHYW, 0)
	res.Energy = m.Report(res.Seconds)

	if n := len(res.Reads); res.Seconds > 0 {
		res.Throughput = float64(n) / res.Seconds
	}
	if j := res.Energy.TotalJ(); j > 0 {
		res.ReadsPerMJ = float64(len(res.Reads)) / (j * 1e3)
	}
	return res
}

func diff(after, before Stats) Stats {
	return Stats{
		IndexFetches: after.IndexFetches - before.IndexFetches,
		NodeFetches:  after.NodeFetches - before.NodeFetches,
		RefFetches:   after.RefFetches - before.RefFetches,
		Pivots:       after.Pivots - before.Pivots,
		Reads:        after.Reads - before.Reads,
	}
}

// lruCache is an LRU set of k-mers for the reuse-cache model, backed by a
// map plus an intrusive doubly-linked list for O(1) access and eviction.
type lruCache struct {
	capacity int
	items    map[dna.Kmer]*lruEntry
	head     *lruEntry // most recently used
	tail     *lruEntry // least recently used
}

type lruEntry struct {
	key        dna.Kmer
	prev, next *lruEntry
}

// newLRU returns an empty cache of the given capacity whose table is
// pre-sized for min(capacity, accesses) keys: a replay of a few thousand
// accesses need not allocate for the full capacity.
func newLRU(capacity, accesses int) *lruCache {
	if capacity < 1 {
		capacity = 1
	}
	return &lruCache{capacity: capacity, items: make(map[dna.Kmer]*lruEntry, min(capacity, accesses))}
}

// access returns true on hit, inserting the key either way. A full cache
// recycles its evicted entry for the new key.
func (c *lruCache) access(k dna.Kmer) bool {
	if e, ok := c.items[k]; ok {
		c.unlink(e)
		c.pushFront(e)
		return true
	}
	var e *lruEntry
	if len(c.items) >= c.capacity {
		e = c.tail
		c.unlink(e)
		delete(c.items, e.key)
		e.key = k
	} else {
		e = &lruEntry{key: k}
	}
	c.items[k] = e
	c.pushFront(e)
	return false
}

func (c *lruCache) pushFront(e *lruEntry) {
	e.prev, e.next = nil, c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *lruCache) unlink(e *lruEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
}
