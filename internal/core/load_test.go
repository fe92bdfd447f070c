package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"casa/internal/dna"
	"casa/internal/idxio"
	"casa/internal/smem"
)

// goldenBuilds are the fixed small builds whose WriteIndex bytes are
// pinned by SHA-256: the unit-test geometry (k=7, m=4) with a partial
// last packed byte, and the paper's k=19, m=10 with 18-bit tags.
var goldenBuilds = []struct {
	name    string
	cfg     func() Config
	seed    int64
	refLen  int
	overlap int
	sha256  string
}{
	{
		name: "k7m4",
		cfg: func() Config {
			c := testConfig()
			c.PartitionBases = 900
			return c
		},
		seed: 1, refLen: 2603, overlap: 50,
		sha256: "4f3c0521383539f62cd8c269b87876bc11a0f7c90879b3040aed57fcce81fdc4",
	},
	{
		name: "k19m10",
		cfg: func() Config {
			c := DefaultConfig()
			c.PartitionBases = 1 << 12
			return c
		},
		seed: 2, refLen: 10001, overlap: DefaultPartitionOverlap,
		sha256: "14a77aee5ac357dcd54d6ab7b3d41ee92d2bbd77df64ed4b2d536e0750a00b76",
	},
}

// buildGolden builds one golden accelerator and its WriteIndex bytes.
func buildGolden(t testing.TB, i int) (*Accelerator, []byte) {
	t.Helper()
	g := goldenBuilds[i]
	ref := randSeq(rand.New(rand.NewSource(g.seed)), g.refLen)
	a, err := NewWithOverlap(ref, g.cfg(), g.overlap)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := a.WriteIndex(&buf); err != nil {
		t.Fatal(err)
	}
	return a, buf.Bytes()
}

// TestWriteIndexGolden pins the on-disk bytes: an index written by any
// version must hash to the value the format was frozen at, so a change
// to the in-memory tables cannot drift the file format.
func TestWriteIndexGolden(t *testing.T) {
	for i, g := range goldenBuilds {
		_, data := buildGolden(t, i)
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != g.sha256 {
			t.Errorf("%s: WriteIndex sha256 = %s, want %s", g.name, got, g.sha256)
		}
	}
}

// TestLoadedFilterEqualsBuilt requires ReadIndex to reproduce every table
// of every partition element for element: the reference, the mini index
// entries (bounds and tag summaries), the 32-bit tags, the search
// indicators and the position lists.
func TestLoadedFilterEqualsBuilt(t *testing.T) {
	for i, g := range goldenBuilds {
		built, data := buildGolden(t, i)
		loaded, err := ReadIndex(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if loaded.overlap != built.overlap || loaded.refLen != built.refLen ||
			!slices.Equal(loaded.starts, built.starts) || len(loaded.parts) != len(built.parts) {
			t.Fatalf("%s: geometry differs", g.name)
		}
		for pi, bp := range built.parts {
			lp := loaded.parts[pi]
			bf, lf := bp.filter, lp.filter
			for _, tc := range []struct {
				table string
				equal bool
			}{
				{"ref", slices.Equal(lp.ref, bp.ref)},
				{"mini", slices.Equal(lf.mini, bf.mini)},
				{"tags", slices.Equal(lf.tags, bf.tags)},
				{"data", slices.Equal(lf.data, bf.data)},
				{"posIndex", slices.Equal(lf.posIndex, bf.posIndex)},
				{"positions", slices.Equal(lf.positions, bf.positions)},
			} {
				if !tc.equal {
					t.Errorf("%s partition %d: loaded %s differs from built", g.name, pi, tc.table)
				}
			}
			if lf.suffixBits != bf.suffixBits || lf.suffixMask != bf.suffixMask {
				t.Errorf("%s partition %d: derived tag split differs", g.name, pi)
			}
		}
	}
}

// TestLoadIgnoresGroupWords fills every group word of a valid index with
// garbage and stores it in a container section, so its checksum is
// valid. The index must load into the built tables, seed exactly as the
// built accelerator does and write the original bytes back: the loader
// skips the group words and the writer derives them from positions.
func TestLoadIgnoresGroupWords(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i, g := range goldenBuilds {
		built, good := buildGolden(t, i)
		garbled := slices.Clone(good)
		for pi := range built.parts {
			o := offsetsOf(built, pi)
			for j := range built.parts[pi].filter.tags {
				binary.LittleEndian.PutUint64(garbled[o.data+16*j+8:], rng.Uint64())
			}
		}
		var file bytes.Buffer
		w, err := idxio.NewWriter(&file, idxio.Header{Engine: "casa"})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Section("casa/accelerator", func(sw io.Writer) error {
			_, err := sw.Write(garbled)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r, _, err := idxio.NewReader(&file)
		if err != nil {
			t.Fatal(err)
		}
		sec, err := r.Section("casa/accelerator")
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := ReadIndex(sec)
		if err != nil {
			t.Fatalf("%s: index with garbage group words: %v", g.name, err)
		}
		if err := r.Close(); err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		for pi, bp := range built.parts {
			if table := sameTables(loaded.parts[pi].filter, bp.filter); table != "" {
				t.Fatalf("%s partition %d: loaded %s differ from built", g.name, pi, table)
			}
		}
		var rewritten bytes.Buffer
		if err := loaded.WriteIndex(&rewritten); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rewritten.Bytes(), good) {
			t.Errorf("%s: the loaded index writes different bytes from the built one", g.name)
		}
		ref := randSeq(rand.New(rand.NewSource(g.seed)), g.refLen)
		var reads []dna.Sequence
		for range 30 {
			reads = append(reads, plantedRead(rng, ref, 60, rng.Intn(3)))
		}
		want, got := built.SeedReads(reads), loaded.SeedReads(reads)
		for ri := range reads {
			if !smem.Equal(want.Reads[ri].Forward, got.Reads[ri].Forward) ||
				!smem.Equal(want.Reads[ri].Reverse, got.Reads[ri].Reverse) {
				t.Fatalf("%s read %d: loaded %v, built %v", g.name, ri, got.Reads[ri], want.Reads[ri])
			}
		}
		if want.Cycles != got.Cycles || !reflect.DeepEqual(want.Stats, got.Stats) {
			t.Errorf("%s: modelled activity differs: loaded %d cycles %+v, built %d cycles %+v",
				g.name, got.Cycles, got.Stats, want.Cycles, want.Stats)
		}
	}
}

// TestPartitionLiveBytes bounds the heap a one-partition accelerator
// keeps, built and loaded, at the paper's k=19, m=10 on 1 Mbase of random
// sequence, where nearly every k-mer is distinct. A base costs 1 byte of
// reference and 4 of positions, a distinct k-mer a 4-byte tag, an 8-byte
// start mask and a 4-byte position-index entry, and the mini index an
// 8-byte entry per bucket, a 4-byte bound and a 4-byte tag summary
// (8 MiB): about 29 bytes per base in all. Two-word indicators (37 bytes
// per base) or 8-byte tags (33) do not fit.
func TestPartitionLiveBytes(t *testing.T) {
	const n = 1 << 20
	const limit = 30 // bytes per base
	cfg := DefaultConfig()
	cfg.PartitionBases = n
	data := singlePartitionIndex(t, n)
	live := func(name string, build func() (*Accelerator, error)) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		a, err := build()
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(a)
		perBase := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n
		t.Logf("%s partition: %.2f live bytes per base", name, perBase)
		if perBase > limit {
			t.Errorf("%s partition keeps %.2f bytes per base, over the %d limit", name, perBase, limit)
		}
	}
	live("built", func() (*Accelerator, error) {
		return New(randSeq(rand.New(rand.NewSource(n)), n), cfg)
	})
	live("loaded", func() (*Accelerator, error) { return ReadIndex(bytes.NewReader(data)) })
	runtime.KeepAlive(data) // live across both windows, so neither counts it
}

// singlePartitionIndex builds a one-partition index of n bases at the
// paper's k=19, m=10 and returns its WriteIndex bytes.
func singlePartitionIndex(t testing.TB, n int) []byte {
	t.Helper()
	cfg := DefaultConfig()
	cfg.PartitionBases = n
	a, err := New(randSeq(rand.New(rand.NewSource(int64(n))), n), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := a.WriteIndex(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// multiChunk builds a one-partition accelerator at k=8, m=4 with more
// tags than one decode chunk holds, and returns its WriteIndex bytes.
// The payload fills more chunks than ReadIndex has workers, so a load
// at GOMAXPROCS loadWorkers or more decodes on the full pool, and its
// base count is not a multiple of 4, so its reference has pad bits.
func multiChunk(t testing.TB) (*Accelerator, []byte) {
	t.Helper()
	cfg := testConfig()
	cfg.K, cfg.MinSMEM = 8, 8
	a, err := New(randSeq(rand.New(rand.NewSource(5)), cfg.PartitionBases-1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.parts) != 1 || len(a.parts[0].filter.tags) <= loadChunk/8 {
		t.Fatalf("%d partitions, %d tags: not one partition of several chunks", len(a.parts), len(a.parts[0].filter.tags))
	}
	var buf bytes.Buffer
	if err := a.WriteIndex(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() <= loadWorkers*loadChunk {
		t.Fatalf("%d-byte index fills no more than %d chunks", buf.Len(), loadWorkers)
	}
	return a, buf.Bytes()
}

// TestReadIndexAllocs pins the bulk decoder: loading a partition costs a
// fixed number of allocations (its tables, each made once at its exact
// size, and the decode pool with its buffers) whatever the partition's
// size, so a per-element decoder cannot come back unnoticed.
func TestReadIndexAllocs(t *testing.T) {
	allocs := func(n int) float64 {
		data := singlePartitionIndex(t, n)
		return testing.AllocsPerRun(3, func() {
			if _, err := ReadIndex(bytes.NewReader(data)); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(1<<14), allocs(1<<17)
	if small != large {
		t.Errorf("ReadIndex allocations grow with the partition: %v at 1<<14 bases, %v at 1<<17", small, large)
	}
}

// TestReadIndexPoolAllocs loads two partitions that both fill more
// chunks than the decode pool has workers, at GOMAXPROCS loadWorkers, so
// both loads run on the full pool. The runtime's goroutine and channel
// bookkeeping adds a few allocations that vary from load to load, so
// the larger load may cost a few more than the smaller, but fewer than
// half the extra chunks it decodes: one allocation per chunk fails.
func TestReadIndexPoolAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(loadWorkers))
	load := func(n int) (allocs uint64, chunks int) {
		data := singlePartitionIndex(t, n)
		least := uint64(math.MaxUint64) // of five loads
		var before, after runtime.MemStats
		for range 5 {
			runtime.ReadMemStats(&before)
			if _, err := ReadIndex(bytes.NewReader(data)); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.Mallocs-before.Mallocs)
		}
		return least, len(data) / loadChunk
	}
	small, smallChunks := load(1 << 16)
	large, largeChunks := load(1 << 18)
	if smallChunks <= loadWorkers {
		t.Fatalf("the smaller index fills %d chunks, not more than the pool's %d workers", smallChunks, loadWorkers)
	}
	if extra := (largeChunks - smallChunks) / 2; large >= small+uint64(extra) {
		t.Errorf("ReadIndex allocations on the pool grow with the chunks: %d for %d chunks, %d for %d", small, smallChunks, large, largeChunks)
	}
}

// BenchmarkReadIndex reports the decode rate of a 1 Mbase partition.
func BenchmarkReadIndex(b *testing.B) {
	data := singlePartitionIndex(b, 1<<20)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := ReadIndex(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// partOffsets locates one partition's fields in WriteIndex output.
type partOffsets struct {
	start, n, ref, nMini, mini, nTags, tags, data, nPos, posIndex, positions, end int
}

// offsetsOf walks a's WriteIndex layout (see serialize.go) to partition pi.
func offsetsOf(a *Accelerator, pi int) partOffsets {
	var o partOffsets
	o.end = len(indexMagic) + 14*8
	for _, p := range a.parts[:pi+1] {
		f := p.filter
		o.start = o.end
		o.n = o.start + 8
		o.ref = o.n + 8
		o.nMini = o.ref + dna.PackedLen(len(p.ref))
		o.mini = o.nMini + 8
		o.nTags = o.mini + 4*(len(f.mini)-1)
		o.tags = o.nTags + 8
		o.data = o.tags + 8*len(f.tags)
		o.nPos = o.data + 16*len(f.tags)
		o.posIndex = o.nPos + 8
		o.positions = o.posIndex + 4*len(f.posIndex)
		o.end = o.positions + 4*len(f.positions)
	}
	return o
}

// wideBuckets builds a one-partition accelerator at k=17, m=1, whose
// four mini buckets each hold the tags of more than three chunks of
// search indicators (16 bytes a tag), and returns its WriteIndex bytes.
func wideBuckets(t testing.TB) (*Accelerator, []byte) {
	t.Helper()
	cfg := testConfig()
	cfg.K, cfg.M, cfg.MinSMEM = 17, 1, 17
	cfg.PartitionBases = 300000
	a, err := New(randSeq(rand.New(rand.NewSource(17)), cfg.PartitionBases), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if f := a.parts[0].filter; f.mini[1].start <= 3*loadChunk/16 {
		t.Fatalf("bucket 0 holds %d tags, not three chunks' worth", f.mini[1].start)
	}
	var buf bytes.Buffer
	if err := a.WriteIndex(&buf); err != nil {
		t.Fatal(err)
	}
	return a, buf.Bytes()
}

// TestReadIndexRejectsMalformed corrupts one structural field of a valid
// payload at a time and requires a named "core:" error for each, where
// the old loader either panicked while seeding or answered wrongly, and
// the same error at GOMAXPROCS 1 and 8. The payload is the multi-chunk
// index, so at GOMAXPROCS 8 its tables decode on a pool of several
// workers.
func TestReadIndexRejectsMalformed(t *testing.T) {
	a, good := multiChunk(t)
	o, f := offsetsOf(a, 0), a.parts[0].filter
	if o.end != len(good) {
		t.Fatalf("layout walk ends at %d of %d bytes", o.end, len(good))
	}
	put32 := func(b []byte, off int, v uint32) { binary.LittleEndian.PutUint32(b[off:], v) }
	put64 := func(b []byte, off int, v uint64) { binary.LittleEndian.PutUint64(b[off:], v) }
	// A mini bucket holding at least two tags, for the ordering case.
	wide := 0
	for f.mini[wide+1].start-f.mini[wide].start < 2 {
		wide++
	}
	nTags, nPos := len(f.tags), len(f.positions)
	// The second chunk of tags must start inside a bucket, for the
	// chunk-boundary cases.
	second := loadChunk / 8 // the second chunk's first tag
	if f.tags[second] <= f.tags[second-1] {
		t.Fatalf("tag %d of %d does not continue a bucket", second, nTags)
	}
	cases := []struct {
		name   string
		mutate func(b []byte) []byte
		want   string
	}{
		{"partition count", func(b []byte) []byte { put64(b, len(indexMagic)+13*8, 2); return b }, "partitions, its geometry needs"},
		{"partition start", func(b []byte) []byte { put64(b, o.start, 1); return b }, "partition 0 starts at"},
		{"partition length", func(b []byte) []byte { put64(b, o.n, uint64(len(a.parts[0].ref)-1)); return b }, "its geometry needs"},
		{"pad bits", func(b []byte) []byte { b[o.nMini-1] |= 0xC0; return b }, "pad bits"},
		{"mini end decreases", func(b []byte) []byte { put32(b, o.mini, uint32(nTags)); return b }, "before its start"},
		{"mini end past tags", func(b []byte) []byte { put32(b, o.nTags-4, uint32(nTags+1)); return b }, "tag count is"},
		{"tag too wide", func(b []byte) []byte { put64(b, o.tags, 1<<f.suffixBits); return b }, "wider than"},
		{"tag order", func(b []byte) []byte {
			i := int(f.mini[wide].start)
			put64(b, o.tags+8*(i+1), uint64(f.tags[i]))
			return b
		}, "does not increase within mini bucket"},
		{"tag too wide at a bucket head", func(b []byte) []byte { put64(b, o.tags+8*int(f.mini[wide].start), 1<<f.suffixBits); return b }, "wider than"},
		{"tag too wide at a chunk start", func(b []byte) []byte { put64(b, o.tags+8*second, 1<<f.suffixBits); return b }, fmt.Sprintf("tag %d is %#x, wider than", second, 1<<f.suffixBits)},
		{"tag order at a chunk start", func(b []byte) []byte { put64(b, o.tags+8*second, uint64(f.tags[second-1])); return b }, fmt.Sprintf("tag %d (%#x) does not increase within mini bucket", second, f.tags[second-1])},
		{"posIndex start", func(b []byte) []byte { put32(b, o.posIndex, 1); return b }, "posIndex: entry 0"},
		{"posIndex decreases", func(b []byte) []byte { put32(b, o.posIndex+8, 0); return b }, "posIndex: entry 2"},
		{"posIndex past positions", func(b []byte) []byte { put32(b, o.posIndex+4, uint32(nPos+1)); return b }, "posIndex: entry 1"},
		{"posIndex end", func(b []byte) []byte {
			put32(b, o.positions-4, uint32(f.posIndex[nTags-1]))
			return b
		}, "posIndex ends at"},
		{"position past last k-mer", func(b []byte) []byte {
			put32(b, o.positions, uint32(len(a.parts[0].ref)-a.cfg.K+1))
			return b
		}, "past the last k-mer start"},
		{"claim past payload", func(b []byte) []byte { return b[:o.positions+4] }, "positions: "},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.mutate(slices.Clone(good))
			_, err := readIndexAt(1, b)
			if err == nil {
				t.Fatal("malformed index accepted")
			}
			if !strings.HasPrefix(err.Error(), "core: ") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q, want a core: error mentioning %q", err, tc.want)
			}
			if _, err8 := readIndexAt(8, b); err8 == nil || err8.Error() != err.Error() {
				t.Fatalf("error %q at GOMAXPROCS 8, %q at 1", err8, err)
			}
		})
	}
}

// readIndexAt runs ReadIndex over data at the given GOMAXPROCS, which
// sets its decode pool's size.
func readIndexAt(procs int, data []byte) (*Accelerator, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	return ReadIndex(bytes.NewReader(data))
}

// TestReadIndexIndependentOfProcs loads the golden, the multi-chunk and
// the wide-bucket indexes at GOMAXPROCS 1, 2 and 8: however many workers
// decode the chunks, every table of every partition must equal the built
// one, the mini entries' tag summaries included. In the wide-bucket
// index, the chunk that holds a bucket's first tag sets its summary from
// the tags of the chunks after it.
func TestReadIndexIndependentOfProcs(t *testing.T) {
	builds := map[string]func() (*Accelerator, []byte){
		"multi-chunk":  func() (*Accelerator, []byte) { return multiChunk(t) },
		"wide buckets": func() (*Accelerator, []byte) { return wideBuckets(t) },
	}
	for i, g := range goldenBuilds {
		builds[g.name] = func() (*Accelerator, []byte) { return buildGolden(t, i) }
	}
	for name, build := range builds {
		built, data := build()
		for _, procs := range []int{1, 2, 8} {
			loaded, err := readIndexAt(procs, data)
			if err != nil {
				t.Fatalf("%s at GOMAXPROCS %d: %v", name, procs, err)
			}
			if !slices.Equal(loaded.starts, built.starts) || len(loaded.parts) != len(built.parts) {
				t.Fatalf("%s at GOMAXPROCS %d: geometry differs", name, procs)
			}
			for pi, bp := range built.parts {
				lp := loaded.parts[pi]
				table := sameTables(lp.filter, bp.filter)
				if !slices.Equal(lp.ref, bp.ref) {
					table = "reference"
				}
				if table != "" {
					t.Errorf("%s at GOMAXPROCS %d, partition %d: loaded %s differ from built", name, procs, pi, table)
				}
			}
		}
	}
}

// TestReadIndexReportsEarliestChunk damages a multi-chunk index in two
// places, the first at a lower offset than the second, in the same table
// or in different ones, and requires the error the first damage alone
// gives, at GOMAXPROCS 1 and 8: a worker pool that decodes a late chunk
// before an early one must still report what a front-to-back decode
// meets first.
func TestReadIndexReportsEarliestChunk(t *testing.T) {
	a, good := multiChunk(t)
	o, f := offsetsOf(a, 0), a.parts[0].filter
	nTags, nPos := len(f.tags), len(f.positions)
	put32 := func(b []byte, off int, v uint32) { binary.LittleEndian.PutUint32(b[off:], v) }
	wideTag := func(i int) func([]byte) {
		return func(b []byte) { binary.LittleEndian.PutUint64(b[o.tags+8*i:], 1<<f.suffixBits) }
	}
	damages := []struct {
		name  string
		apply func([]byte)
	}{ // in increasing offset
		{"mini end decreases", func(b []byte) { put32(b, o.mini, uint32(nTags)) }},
		{"wide tag in the first chunk", wideTag(3)},
		{"wide tag in the second chunk", wideTag(loadChunk/8 + 1)},
		{"wide last tag", wideTag(nTags - 1)},
		{"posIndex past positions", func(b []byte) { put32(b, o.positions-8, uint32(nPos+1)) }},
		{"last position past the last k-mer", func(b []byte) { put32(b, o.end-4, uint32(len(a.parts[0].ref))) }},
	}
	for i, early := range damages {
		alone := slices.Clone(good)
		early.apply(alone)
		_, want := readIndexAt(1, alone)
		if want == nil {
			t.Fatalf("%s: accepted", early.name)
		}
		for _, late := range damages[i+1:] {
			b := slices.Clone(alone)
			late.apply(b)
			for _, procs := range []int{1, 8} {
				if _, err := readIndexAt(procs, b); err == nil || err.Error() != want.Error() {
					t.Errorf("%s, then %s, at GOMAXPROCS %d: error %q, want %q", early.name, late.name, procs, err, want)
				}
			}
		}
	}
}

// TestReadIndexJoinsWorkers loads a multi-chunk index on a pool of
// workers, intact and with a damaged last chunk, and requires the
// goroutine count to come back to where it was each time: ReadIndex
// stops and joins its workers on success and on failure alike.
func TestReadIndexJoinsWorkers(t *testing.T) {
	_, good := multiChunk(t)
	bad := slices.Clone(good)
	binary.LittleEndian.PutUint32(bad[len(bad)-4:], math.MaxUint32)
	before := runtime.NumGoroutine()
	for name, data := range map[string][]byte{"intact": good, "damaged": bad} {
		_, err := readIndexAt(8, data)
		if (err != nil) != (name == "damaged") {
			t.Fatalf("%s index: error %v", name, err)
		}
		// A joined worker has signalled its exit; give it the moment it
		// takes to finish returning.
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatalf("%s index: %d goroutines after ReadIndex, %d before", name, runtime.NumGoroutine(), before)
			}
		}
	}
}

// TestReadIndexBoundsClaimsByPayload gives a short payload a header that
// claims a 1 Gbase partition: the loader must refuse before allocating
// the claimed reference, not after.
func TestReadIndexBoundsClaimsByPayload(t *testing.T) {
	_, good := buildGolden(t, 0)
	b := slices.Clone(good)
	const claimed = 1 << 30
	binary.LittleEndian.PutUint64(b[len(indexMagic)+6*8:], claimed)  // PartitionBases
	binary.LittleEndian.PutUint64(b[len(indexMagic)+12*8:], claimed) // refLen
	binary.LittleEndian.PutUint64(b[len(indexMagic)+13*8:], 1)       // nParts
	binary.LittleEndian.PutUint64(b[len(indexMagic)+15*8:], claimed) // partition 0 length
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadIndex(bytes.NewReader(b))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "reference: ") || !strings.Contains(err.Error(), "payload bytes left") {
		t.Fatalf("error %v, want the reference claim refused", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("refusing the claim allocated %d bytes", grew)
	}
}

// TestTagCheckMatchesOracle overwrites tags of a two-chunk partition,
// around the chunk boundary, at its end and anywhere, with nearby,
// equal, smaller and too-wide values and requires ReadIndex
// to accept exactly the tag arrays whose full k-mers (bucket, tag)
// strictly increase within the suffix width, and otherwise to name the
// first offending tag, as a direct per-tag walk finds it.
func TestTagCheckMatchesOracle(t *testing.T) {
	a, index := multiChunk(t)
	o, f := offsetsOf(a, 0), a.parts[0].filter
	firstBad := func(tags []uint64) int {
		bkt := 0
		var prev uint64
		for i, v := range tags {
			for int(f.mini[bkt+1].start) <= i {
				bkt++
			}
			kmer := uint64(bkt)<<f.suffixBits | v
			if v > f.suffixMask || (i > 0 && kmer <= prev) {
				return i
			}
			prev = kmer
		}
		return -1
	}
	rng := rand.New(rand.NewSource(6))
	for trial := range 300 {
		tags := make([]uint64, len(f.tags))
		for i, v := range f.tags {
			tags[i] = uint64(v)
		}
		b := slices.Clone(index)
		for range 1 + rng.Intn(3) {
			i := rng.Intn(len(tags))
			switch trial % 3 {
			case 0:
				i = loadChunk/8 - 2 + rng.Intn(4) // around the chunk boundary
			case 1:
				i = len(tags) - 1 - rng.Intn(70) // in the last, partial word of heads
			}
			switch rng.Intn(4) {
			case 0:
				tags[i] += uint64(rng.Intn(5)) - 2
			case 1:
				tags[i] = tags[max(i-1, 0)]
			case 2:
				tags[i] = uint64(rng.Intn(int(f.suffixMask) + 1))
			default:
				tags[i] = f.suffixMask + 1 + uint64(rng.Intn(3))
			}
			binary.LittleEndian.PutUint64(b[o.tags+8*i:], tags[i])
		}
		_, err := ReadIndex(bytes.NewReader(b))
		switch bad := firstBad(tags); {
		case bad < 0 && err != nil:
			t.Fatalf("trial %d: valid tags refused: %v", trial, err)
		case bad >= 0 && (err == nil || !strings.Contains(err.Error(), fmt.Sprintf("tags: tag %d ", bad))):
			t.Fatalf("trial %d: tag %d (%#x) is the first bad one, got error %v", trial, bad, tags[bad], err)
		}
	}
}

// TestFoldTagsMatchesOracle drives foldTags directly on chunks of every
// length up to 200 tags (whole and partial bitset words), with random
// bucket heads and tags that mostly increase, and requires its verdict
// and its decoded tags to match a per-tag walk.
func TestFoldTagsMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const mask = 1<<10 - 1
	for n := 1; n <= 200; n++ {
		for range 20 {
			heads := make([]uint64, (n+63)/64)
			b := make([]byte, 8*n)
			prev := uint64(rng.Intn(mask))
			want, p := false, prev
			for i := range n {
				head := rng.Intn(8) == 0
				if head {
					heads[i/64] |= 1 << (i % 64)
				}
				v := p + uint64(rng.Intn(40)) + 1
				if rng.Intn(4*n) == 0 {
					v = p - uint64(rng.Intn(3)) // equal or smaller
				}
				if v > mask || (!head && v <= p) {
					want = true
				}
				binary.LittleEndian.PutUint64(b[8*i:], v)
				p = v
			}
			dst := make([]uint32, n)
			bad := foldTags(dst, b, heads, prev, mask)
			if (bad != 0) != want {
				t.Fatalf("%d tags: bad %#x (want a failure: %v)", n, bad, want)
			}
			for i, v := range dst {
				if uint64(v) != binary.LittleEndian.Uint64(b[8*i:])&0xffffffff {
					t.Fatalf("%d tags: tag %d decoded as %d", n, i, v)
				}
			}
		}
	}
}

// FuzzReadIndex mutates a small valid WriteIndex payload. ReadIndex must
// either fail with a named "core:" error or return an accelerator that
// seeds a read, and resolves its hit positions, without panicking.
func FuzzReadIndex(f *testing.F) {
	rng := rand.New(rand.NewSource(11))
	cfg := testConfig()
	cfg.M = 3 // a 64-entry mini index keeps the seed payload small
	cfg.PartitionBases = 60
	ref := randSeq(rng, 90)
	a, err := NewWithOverlap(ref, cfg, 20)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := a.WriteIndex(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	read := plantedRead(rng, ref, 30, 1)
	f.Fuzz(func(t *testing.T, data []byte) {
		loaded, err := ReadIndex(bytes.NewReader(data))
		if err != nil {
			if !strings.HasPrefix(err.Error(), "core: ") {
				t.Fatalf("unnamed error %q", err)
			}
			return
		}
		res := loaded.SeedReads([]dna.Sequence{read})
		for _, m := range res.Reads[0].Forward {
			loaded.HitPositions(read, m, 0)
		}
	})
}
