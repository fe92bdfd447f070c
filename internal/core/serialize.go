package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"casa/internal/dna"
	"casa/internal/hugemem"
)

// Index serialization: the paper builds the pre-seeding filter tables
// offline for each reference partition (§4.1); WriteIndex/ReadIndex
// persist a fully built Accelerator (partitioned reference + filters) so
// the expensive construction happens once (cmd/casa-index) and later runs
// load it directly. The payload, little-endian throughout:
//
//	"CASAIDX1" | 11 x u64 config | u64 overlap | u64 refLen | u64 nParts
//	nParts x ( u64 start | u64 n | ceil(n/4) packed bases
//	         | u64 4^m | 4^m x u32 mini bucket end
//	         | u64 nTags | nTags x u64 tag | nTags x (u64 start mask, u64 group mask)
//	         | u64 nPos | (nTags+1) x u32 posIndex | nPos x u32 position )
//
// TestWriteIndexGolden pins these bytes. The file is wider than the
// tables it loads into, except for the mini index, which is narrower.
// The mini bucket ends become the low halves (the bounds) of the
// filter's 8-byte mini entries, behind a leading 0; the high halves,
// each bucket's tag summary, are not in the file, and the indicators
// pass derives them from the tags as it loads (fillSummaries). The
// filter keeps only the start masks: each group word is derived from
// the k-mer's positions (occupiedGroups) when written and skipped when
// read, as idxio skips its retired header slot, so a damaged group word
// cannot change what a loaded index seeds. The u64 tags and two-word
// indicators stay until a format version bump.
//
// ReadIndex is a two-stage pipeline. The calling goroutine reads the
// payload front to back, so a checksumming reader (an idxio section)
// still sees every byte, and hands each 256 KiB chunk of a table to a
// pool of workers, which decode and validate it into an array advised
// for huge pages (hugemem). A chunk carries the raw entry before it, so the order checks need nothing from the previous chunk's decode,
// and each table ends with a barrier, so a check that reads an earlier
// table (the tags check reads the mini pass's bitset) sees it whole. Of
// the chunks that fail, the one at the lowest offset names the error,
// and a read error counts only when no earlier chunk failed: the error
// is the one a front-to-back decode meets first.
//
// The mini pass marks each nonempty bucket's first tag in a bitset; a
// tag must fit the 2(k-m) suffix bits and, unless marked, exceed its
// predecessor. foldTags folds both tests over a chunk into one bad word
// with no data-dependent branch, and only a bad chunk is rescanned
// (badTag) to name its first offending tag. The posIndex and positions
// range checks fold the same way (foldRange), each rescanned by its
// per-entry loop.

// indexMagic identifies the file format; the trailing digit is the
// version.
const indexMagic = "CASAIDX1"

// WriteIndex serializes the accelerator's configuration, partitioning and
// per-partition filter tables.
func (a *Accelerator) WriteIndex(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.WriteString(indexMagic); err != nil {
		return err
	}
	writeConfig(bw, a.cfg)
	writeU64(bw, uint64(a.overlap))
	writeU64(bw, uint64(a.refLen))
	writeU64(bw, uint64(len(a.parts)))
	for pi, p := range a.parts {
		writeU64(bw, uint64(a.starts[pi]))
		if err := writePartition(bw, p); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// loadChunk is the size of each buffer ReadIndex reads a table through.
// It holds a multiple of 64 tags, so each chunk of tags starts on a word
// of the bucket-head bitset (foldTags).
const loadChunk = 256 << 10

// loadWorkers caps ReadIndex's decode pool. One goroutine reads and
// checksums every chunk, about a third of a load's CPU time, so it keeps
// two or three decoders busy; the fourth covers a decoder stalled on a
// table's first page faults. Each worker has two chunk buffers, so a
// load holds at most 2 MiB of them on any host.
const loadWorkers = 4

// ReadIndex reconstructs an accelerator from WriteIndex output. Each table
// is decoded in bulk, straight into an array allocated once at its exact
// size, and checked for the structure seeding relies on (partition
// geometry, ordered mini index, tag width and order, position ranges), so
// a malformed payload fails with a "core:" error rather than a panic or a
// wrong answer later. When r reports its unread length through a
// Len() int method, as idxio section readers and bytes.Reader do, every
// table's claimed size is checked against it before the table is
// allocated.
//
// The calling goroutine reads r in order, so a checksumming reader sees
// every byte; the chunks it reads are decoded and checked on a pool of
// up to loadWorkers goroutines, which ReadIndex joins before it returns.
func ReadIndex(r io.Reader) (*Accelerator, error) {
	d := newDecoder(r)
	defer d.close()
	var magic [len(indexMagic)]byte
	if err := d.read(magic[:]); err != nil {
		return nil, fmt.Errorf("core: reading index header: %w", err)
	}
	if string(magic[:]) != indexMagic {
		return nil, fmt.Errorf("core: not a CASA index (magic %q)", magic)
	}
	var hdr [14]uint64 // config (11 words), overlap, refLen, nParts
	var err error
	for i := range hdr {
		if hdr[i], err = d.u64(); err != nil {
			return nil, fmt.Errorf("core: reading index header: %w", err)
		}
	}
	cfg := decodeConfig(hdr[:11])
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("core: index holds invalid config: %w", err)
	}
	overlap, refLen, nParts := hdr[11], hdr[12], hdr[13]
	partBases := uint64(cfg.PartitionBases)
	if refLen == 0 || refLen > math.MaxInt32 || overlap >= partBases {
		return nil, fmt.Errorf("core: index geometry (%d bases, overlap %d) does not fit %d-base partitions with int32 positions", refLen, overlap, partBases)
	}
	// NewWithOverlap's partitioning: partition i starts at i*step and
	// runs for up to PartitionBases bases, the last one ending at refLen.
	step := partBases - overlap
	wantParts := uint64(1)
	if refLen > partBases {
		wantParts += (refLen - partBases + step - 1) / step
	}
	if nParts != wantParts {
		return nil, fmt.Errorf("core: index holds %d partitions, its geometry needs %d", nParts, wantParts)
	}
	a := &Accelerator{cfg: cfg, overlap: int(overlap), refLen: int(refLen)}
	for i := uint64(0); i < nParts; i++ {
		start := i * step
		got, err := d.u64()
		if err != nil {
			return nil, fmt.Errorf("core: partition %d: %w", i, err)
		}
		if got != start {
			return nil, fmt.Errorf("core: partition %d starts at %d, its geometry needs %d", i, got, start)
		}
		p, err := readPartition(d, cfg, int(min(partBases, refLen-start)))
		if err != nil {
			return nil, fmt.Errorf("core: partition %d: %w", i, err)
		}
		a.starts = append(a.starts, int(start))
		a.parts = append(a.parts, p)
	}
	return a, nil
}

// writePartition emits the packed reference and the filter arrays.
func writePartition(w *bufio.Writer, p *Partition) error {
	writeU64(w, uint64(len(p.ref)))
	if _, err := w.Write(dna.AppendPacked(nil, p.ref)); err != nil {
		return err
	}
	f := p.filter
	// Mini index: the bucket end offsets, one u32 per 4^M buckets (the
	// entries' bounds without the leading 0). The summaries are not
	// written: ReadIndex derives them from the tags.
	writeU64(w, uint64(len(f.mini)-1))
	for _, e := range f.mini[1:] {
		writeU32(w, e.start)
	}
	writeU64(w, uint64(len(f.tags)))
	for _, t := range f.tags {
		writeU64(w, uint64(t))
	}
	for t, starts := range f.data {
		writeU64(w, starts)
		writeU64(w, occupiedGroups(f.positionsAt(int32(t)), f.cfg))
	}
	writeU64(w, uint64(len(f.positions)))
	for _, pi := range f.posIndex {
		writeU32(w, uint32(pi))
	}
	for _, pos := range f.positions {
		writeU32(w, uint32(pos))
	}
	return nil
}

// readPartition decodes one partition of n bases, validating each table
// as it streams past. Each table's chunk decoder gets the raw entry
// before its chunk as prev (rawEntry), so a chunk's checks need nothing
// from the decoding of the chunk before it; a table's scalar checks run
// once its every chunk is decoded.
func readPartition(d *decoder, cfg Config, n int) (*Partition, error) {
	got, err := d.u64()
	if err != nil {
		return nil, err
	}
	if got != uint64(n) {
		return nil, fmt.Errorf("holds %d bases, its geometry needs %d", got, n)
	}
	packedLen := dna.PackedLen(n)
	if err := d.claim("reference", uint64(packedLen), 1); err != nil {
		return nil, err
	}
	ref := hugemem.Advise(make(dna.Sequence, n))
	if _, err := d.array(packedLen, 1, func(b []byte, first int, _ uint64) error {
		at := 4 * first // the chunk's first base
		dna.AppendUnpacked(ref[at:at], b, min(n-at, 4*len(b)))
		if first+len(b) == packedLen && n%4 != 0 && b[len(b)-1]>>uint(2*(n%4)) != 0 {
			return fmt.Errorf("pad bits after base %d are not zero", n)
		}
		return nil
	}); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}

	nMini, err := d.u64()
	if err != nil {
		return nil, err
	}
	if nMini != uint64(dna.NumKmers(cfg.M)) {
		return nil, fmt.Errorf("mini index size %d does not match m=%d", nMini, cfg.M)
	}
	f := &Filter{cfg: cfg}
	f.initDerived()
	// The bucket ends land behind the bound array's leading 0. heads
	// marks each nonempty bucket's first tag for the tag check below; a
	// damaged end past the partition, which the tag count refuses, is
	// clamped to stay inside it. A chunk gathers its marks one bitset
	// word at a time and ORs each word in with orWord, since the chunks
	// on either side of a chunk boundary can mark the same word.
	heads := d.bitset(n/64 + 1)
	top := uint32(n)
	var lastEnd uint64
	f.mini, lastEnd, err = decodeTable(d, "mini index", nMini, 4, 1, func(dst []miniEntry, b []byte, first int, prev uint64) error {
		prevEnd := uint32(prev)
		w, marks := min(prevEnd, top)/64, uint64(0)
		for j := range dst {
			end := binary.LittleEndian.Uint32(b[4*j:])
			if end < prevEnd {
				return fmt.Errorf("bucket %d ends at %d, before its start %d", first+j, end, prevEnd)
			}
			s := min(prevEnd, top)
			if s/64 != w {
				orWord(&heads[w], marks)
				w, marks = s/64, 0
			}
			marks |= uint64((prevEnd-end)>>31) << (s % 64) // 1 when end > prevEnd
			dst[j].start, prevEnd = end, end
		}
		orWord(&heads[w], marks)
		return nil
	})
	if err != nil {
		return nil, err
	}

	nTags, err := d.u64()
	if err != nil {
		return nil, err
	}
	if nTags > uint64(n) {
		return nil, fmt.Errorf("tag count %d exceeds partition size", nTags)
	}
	if nTags != lastEnd {
		return nil, fmt.Errorf("mini index ends at %d, tag count is %d", lastEnd, nTags)
	}
	// Tags must strictly increase within each mini bucket: every tag
	// heads does not mark must exceed its predecessor. Every tag must fit
	// the suffix width.
	f.tags, _, err = decodeTable(d, "tags", nTags, 8, 0, func(dst []uint32, b []byte, first int, prev uint64) error {
		if foldTags(dst, b, heads[first/64:], prev, f.suffixMask) == 0 {
			return nil
		}
		return badTag(f, heads, b, first, prev)
	})
	if err != nil {
		return nil, err
	}
	// Each indicator's start mask; its group word is skipped. Each chunk
	// also sets the summaries of the buckets whose first tag it covers:
	// every tag is decoded by now, so a bucket is set whole, by one
	// worker, even where it spans two chunks.
	f.data, _, err = decodeTable(d, "search indicators", nTags, 16, 0, func(dst []uint64, b []byte, first int, _ uint64) error {
		for j := range dst {
			dst[j] = binary.LittleEndian.Uint64(b[16*j:])
		}
		fillSummaries(f.mini, heads, f.tags, first, first+len(dst))
		return nil
	})
	if err != nil {
		return nil, err
	}

	nPos, err := d.u64()
	if err != nil {
		return nil, err
	}
	if nPos > uint64(n) {
		return nil, fmt.Errorf("position count %d exceeds partition size", nPos)
	}
	// posIndex runs non-decreasingly from 0 to nPos.
	var lastIdx uint64
	f.posIndex, lastIdx, err = decodeTable(d, "posIndex", nTags+1, 4, 0, func(dst []int32, b []byte, first int, prev uint64) error {
		if !foldRange(dst, b, int64(prev), int64(nPos), -1) && (first > 0 || dst[0] == 0) {
			return nil
		}
		prevIdx := uint32(prev)
		for j := range dst { // rescan for the first entry out of range
			v, hi := binary.LittleEndian.Uint32(b[4*j:]), nPos
			if first+j == 0 {
				hi = 0
			}
			if v < prevIdx || uint64(v) > hi {
				return fmt.Errorf("entry %d is %d, outside [%d, %d]", first+j, v, prevIdx, hi)
			}
			dst[j], prevIdx = int32(v), v
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if lastIdx != nPos {
		return nil, fmt.Errorf("posIndex ends at %d, position count is %d", lastIdx, nPos)
	}
	lastStart := int64(n) - int64(cfg.K) // the partition's last k-mer start
	f.positions, _, err = decodeTable(d, "positions", nPos, 4, 0, func(dst []int32, b []byte, first int, _ uint64) error {
		if !foldRange(dst, b, 0, lastStart, 0) {
			return nil
		}
		for j := range dst { // rescan for the first position out of range
			v := binary.LittleEndian.Uint32(b[4*j:])
			if int64(v) > lastStart {
				return fmt.Errorf("position %d is %d, past the last k-mer start %d", first+j, v, lastStart)
			}
			dst[j] = int32(v)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return newPartition(cfg, ref, f), nil
}

// bitset returns a zeroed bitset of the given words, reused across
// partitions.
func (d *decoder) bitset(words int) []uint64 {
	d.heads = growN(d.heads, words)
	clear(d.heads)
	return d.heads
}

// fillSummaries sets the summaries of the buckets whose first tag lies in
// tags[lo:hi], once every tag is decoded: a bucket that runs on past hi
// reads the tags after it, so each bucket belongs to one call and none
// needs an atomic update. heads is the bucket-head bitset. Per block of
// 64 tags, a branch-free pass keeps each tag's running summary since its
// bucket's head, and a second pass gives each bucket that ends in the
// block the running summary at its end, 0 for an empty bucket.
func fillSummaries(mini []miniEntry, heads []uint64, tags []uint32, lo, hi int) {
	n := len(mini) - 1 // buckets
	p := sort.Search(n, func(q int) bool { return int(mini[q].start) >= lo })
	last := sort.Search(n, func(q int) bool { return int(mini[q].start) >= hi })
	if p == last {
		return
	}
	var runs [65]uint32 // runs[k]: the running summary before the block's tag k
	for base := int(mini[p].start) &^ 63; p < last; base += 64 {
		block := tags[base:min(base+64, len(tags))]
		h, run := heads[base/64], runs[64]
		for k, tag := range block {
			run = run&(uint32(h)&1-1) | 1<<summaryBit(tag)
			runs[k+1] = run
			h >>= 1
		}
		end := uint32(base + len(block))
		for ; p < last; p++ {
			s, e := mini[p].start, mini[p+1].start
			if e > end {
				break
			}
			mini[p].summary = runs[e-uint32(base)] & uint32(int32(s-e)>>31) // 0 when empty
		}
	}
}

// orWord ORs v into *p atomically.
func orWord(p *uint64, v uint64) {
	for v != 0 {
		old := atomic.LoadUint64(p)
		if atomic.CompareAndSwapUint64(p, old, old|v) {
			return
		}
	}
}

// foldTags decodes a chunk of tags into dst, prev being the tag before
// it and heads the chunk's words of the bucket-head bitset (a chunk
// starts on a word boundary). It folds both tag tests into one word,
// nonzero when a test fails, so a valid chunk runs without a
// data-dependent branch: the tags' bits above mask, and per 64 tags the
// unmarked ones not above their predecessor (v-prev-1 borrows exactly
// then, as both fit in the mask unless the width test already failed).
func foldTags(dst []uint32, b []byte, heads []uint64, prev, mask uint64) (bad uint64) {
	b = b[:8*len(dst)]
	var wide uint64
	for w := 0; w < len(dst); w += 64 {
		run := dst[w:min(w+64, len(dst))]
		src := b[8*w : 8*(w+len(run))]
		var down uint64 // shifts in each tag's borrow at the top
		for j := range run {
			v := binary.LittleEndian.Uint64(src[8*j:])
			down = down>>1 | (v-prev-1)&(1<<63)
			wide |= v
			run[j], prev = uint32(v), v
		}
		// Bit k is now tag w+k's borrow.
		bad |= down >> (64 - len(run)) &^ heads[w/64]
	}
	return bad | wide&^mask
}

// foldRange decodes a chunk of u32 entries into dst and reports, without
// a data-dependent branch, whether one falls outside [lo, hi]: lo is
// prev, then each entry in turn where order is -1 (a non-decreasing
// table), and stays prev where order is 0.
func foldRange(dst []int32, b []byte, prev, hi, order int64) (bad bool) {
	b = b[:4*len(dst)]
	var out int64
	for j := range dst {
		v := int64(binary.LittleEndian.Uint32(b[4*j:]))
		out |= (v - prev) | (hi - v) // negative when v < prev or v > hi
		dst[j], prev = int32(v), prev&^order|v&order
	}
	return out < 0
}

// badTag rescans a tags chunk that failed the folded check and reports
// its first offending entry; prev is the tag before the chunk.
func badTag(f *Filter, heads []uint64, b []byte, first int, prev uint64) error {
	for j := 0; j < len(b)/8; j++ {
		v, i := binary.LittleEndian.Uint64(b[8*j:]), first+j
		if v > f.suffixMask {
			return fmt.Errorf("tag %d is %#x, wider than the %d bits of k-m=%d", i, v, f.suffixBits, f.cfg.K-f.cfg.M)
		}
		if heads[i/64]>>(i%64)&1 == 0 && v <= prev {
			bkt := sort.Search(len(f.mini)-1, func(p int) bool { return int(f.mini[p+1].start) > i })
			return fmt.Errorf("tag %d (%#x) does not increase within mini bucket %d", i, v, bkt)
		}
		prev = v
	}
	return nil
}

// decodeTable checks that count entries of size bytes fit in the unread
// payload, allocates them once behind lead zero entries, and fills them
// from the stream: fn decodes each chunk's whole entries b into dst, the
// chunk starting at entry first, prev being the raw entry before it. It
// returns the raw last entry too.
func decodeTable[T any](d *decoder, table string, count uint64, size, lead int, fn func(dst []T, b []byte, first int, prev uint64) error) ([]T, uint64, error) {
	if err := d.claim(table, count, size); err != nil {
		return nil, 0, err
	}
	out := hugemem.Advise(make([]T, uint64(lead)+count))
	last, err := d.array(int(count), size, func(b []byte, first int, prev uint64) error {
		return fn(out[lead+first:lead+first+len(b)/size], b, first, prev)
	})
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", table, err)
	}
	return out, last, nil
}

// decoder streams WriteIndex's little-endian fields. The goroutine that
// made it reads everything, in order; the chunks of a table, which are
// most of the payload, are decoded on its workers. left counts the
// payload bytes not yet consumed, so a table's claimed size is checked
// against the bytes actually present before the table is allocated.
type decoder struct {
	r     io.Reader
	left  int64
	word  [8]byte  // u64's buffer
	heads []uint64 // the mini buckets' first tags, reused by bitset

	free    chan *chunk    // chunk buffers not in flight, one per slot
	jobs    chan *chunk    // chunks read and not yet taken by a worker
	pending sync.WaitGroup // chunks sent on jobs and not yet decoded
	workers sync.WaitGroup

	// A table's chunks are all decoded before the next table is read, so
	// the failed chunk with the lowest first entry is the table's first.
	mu     sync.Mutex
	err    error // that chunk's error
	errAt  int   // that chunk's first entry
	failed atomic.Bool
}

// chunk is one buffer of whole table entries and the decode it awaits.
type chunk struct {
	b     []byte // the entries read; its capacity is loadChunk bytes, allocated once per load
	first int    // the table index of b's first entry
	prev  uint64 // the raw entry before b; 0 before a table's first
	fn    func(b []byte, first int, prev uint64) error
}

// newDecoder starts min(GOMAXPROCS, loadWorkers, chunks) workers, at
// least one, where chunks is the number of chunks r's Len() fills (no
// bound when r has no Len). Its buffers and chunk slots are all
// allocated here, two per worker, so the reader fills one while a
// worker decodes the other.
func newDecoder(r io.Reader) *decoder {
	d := &decoder{r: r, left: math.MaxInt64}
	workers := min(runtime.GOMAXPROCS(0), loadWorkers)
	if lr, ok := r.(interface{ Len() int }); ok {
		d.left = int64(lr.Len())
		workers = int(min(int64(workers), (d.left+loadChunk-1)/loadChunk))
	}
	workers = max(workers, 1)
	slots := 2 * workers
	bufs, chunks := make([]byte, slots*loadChunk), make([]chunk, slots)
	d.free, d.jobs = make(chan *chunk, slots), make(chan *chunk, slots)
	for i := range chunks {
		chunks[i].b = bufs[i*loadChunk : i*loadChunk : (i+1)*loadChunk]
		d.free <- &chunks[i]
	}
	d.workers.Add(workers)
	for range workers {
		go d.work()
	}
	return d
}

// work decodes chunks until close, recording each chunk's error and
// freeing its buffer.
func (d *decoder) work() {
	defer d.workers.Done()
	for c := range d.jobs {
		if err := c.fn(c.b, c.first, c.prev); err != nil {
			d.mu.Lock()
			if d.err == nil || c.first < d.errAt {
				d.err, d.errAt = err, c.first
			}
			d.mu.Unlock()
			d.failed.Store(true)
		}
		d.free <- c
		d.pending.Done()
	}
}

// close stops the workers and waits for them to exit.
func (d *decoder) close() {
	close(d.jobs)
	d.workers.Wait()
}

// read fills b from the payload.
func (d *decoder) read(b []byte) error {
	if int64(len(b)) > d.left {
		return io.ErrUnexpectedEOF
	}
	if _, err := io.ReadFull(d.r, b); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	d.left -= int64(len(b))
	return nil
}

func (d *decoder) u64() (uint64, error) {
	if err := d.read(d.word[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(d.word[:]), nil
}

// claim checks that a table of count entries of size bytes fits in the
// unread payload.
func (d *decoder) claim(table string, count uint64, size int) error {
	if count > uint64(d.left)/uint64(size) {
		return fmt.Errorf("%s: %d entries of %d bytes exceed the %d payload bytes left", table, count, size, d.left)
	}
	return nil
}

// array streams count entries of size bytes each, in chunks of whole
// entries, and hands each chunk to fn with the index of its first entry
// and the raw entry before it (rawEntry). It returns once every chunk is
// decoded, with the raw last entry, or with the error the decode of the
// table one chunk at a time would have met first: the earliest chunk's
// failure, else the read error that stopped the table. After a failure
// it reads no further.
func (d *decoder) array(count, size int, fn func(b []byte, first int, prev uint64) error) (last uint64, err error) {
	per := loadChunk / size
	for first := 0; first < count && !d.failed.Load(); first += per {
		c := <-d.free
		c.b = c.b[:min(count-first, per)*size]
		if err := d.read(c.b); err != nil {
			d.free <- c
			return 0, d.join(err)
		}
		c.first, c.prev, c.fn = first, last, fn
		last = rawEntry(c.b[len(c.b)-size:])
		d.pending.Add(1)
		d.jobs <- c
	}
	return last, d.join(nil)
}

// join waits for every chunk in flight and returns the earliest chunk's
// decode error, or else readErr.
func (d *decoder) join(readErr error) error {
	d.pending.Wait()
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.err != nil {
		return d.err
	}
	return readErr
}

// rawEntry is the little-endian value of a table entry's first (up to
// eight) bytes: a reference byte, a u32, a tag or an indicator's start
// mask.
func rawEntry(e []byte) uint64 {
	switch len(e) {
	case 1:
		return uint64(e[0])
	case 4:
		return uint64(binary.LittleEndian.Uint32(e))
	}
	return binary.LittleEndian.Uint64(e)
}

// writeConfig serializes the numeric and boolean fields in a fixed order.
func writeConfig(w *bufio.Writer, c Config) {
	for _, v := range []uint64{
		uint64(c.K), uint64(c.M), uint64(c.MinSMEM), uint64(c.Stride),
		uint64(c.Groups), uint64(c.ComputeCAMs), uint64(c.PartitionBases),
		uint64(c.FilterBanks), uint64(c.FIFODepth),
	} {
		writeU64(w, v)
	}
	writeU64(w, uint64(c.ClockHz))
	flags := uint64(0)
	for i, b := range []bool{c.UseFilterTable, c.UseAnalysis, c.ExactMatchPrepass, c.GroupGating, c.EntryGating} {
		if b {
			flags |= 1 << uint(i)
		}
	}
	writeU64(w, flags)
}

// decodeConfig inverts writeConfig's eleven words.
func decodeConfig(vals []uint64) Config {
	flags := vals[10]
	return Config{
		K: int(vals[0]), M: int(vals[1]), MinSMEM: int(vals[2]), Stride: int(vals[3]),
		Groups: int(vals[4]), ComputeCAMs: int(vals[5]), PartitionBases: int(vals[6]),
		FilterBanks: int(vals[7]), FIFODepth: int(vals[8]), ClockHz: float64(vals[9]),

		UseFilterTable:    flags&1 != 0,
		UseAnalysis:       flags&2 != 0,
		ExactMatchPrepass: flags&4 != 0,
		GroupGating:       flags&8 != 0,
		EntryGating:       flags&16 != 0,
	}
}

func writeU64(w *bufio.Writer, v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	w.Write(buf[:])
}

func writeU32(w *bufio.Writer, v uint32) {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], v)
	w.Write(buf[:])
}
