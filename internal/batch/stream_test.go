package batch_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"reflect"
	"runtime"
	"testing"

	"casa/internal/batch"
	"casa/internal/dna"
	"casa/internal/engine"
	"casa/internal/metrics"
	"casa/internal/smem"
	"casa/internal/trace"
)

// batcher returns a Stream producer that yields reads in consecutive
// batches of the given sizes (the last size repeats), then io.EOF.
func batcher(reads []dna.Sequence, sizes ...int) func() ([]dna.Sequence, error) {
	pos, k := 0, 0
	return func() ([]dna.Sequence, error) {
		if pos >= len(reads) {
			return nil, io.EOF
		}
		n := min(sizes[min(k, len(sizes)-1)], len(reads)-pos)
		k++
		pos += n
		return reads[pos-n : pos], nil
	}
}

// reduceCounter counts Reduce calls on the engine a run starts with.
type reduceCounter struct {
	engine.Engine
	reduces *int
}

func (e reduceCounter) Clone() engine.Engine { return reduceCounter{e.Engine.Clone(), e.reduces} }

func (e reduceCounter) Reduce(acts []engine.Activity) engine.Result {
	*e.reduces++
	return e.Engine.Reduce(acts)
}

// TestStreamMatchesOneBatch is the streaming contract for every
// registered engine: batches of uneven sizes, at several worker counts,
// emit every read once in input order with the seeds the one-batch
// Result reports, reduce once, and publish the same metrics exposition
// and Chrome trace bytes as one SeedEngine call over all the reads.
func TestStreamMatchesOneBatch(t *testing.T) {
	ref, reads := testWorkload(t, 1<<15, 150)
	for _, e := range testEngines(t, ref) {
		wantReg, wantTr := metrics.New(), trace.New(trace.PolicyAll, 0)
		want := batch.SeedEngine(e, reads, batch.Options{Workers: 1, Metrics: wantReg, Trace: wantTr})
		wantSMEMs := e.SMEMs(want)
		var wantSeeds []engine.Seeds
		if pos, ok := e.(engine.Positioner); ok {
			wantSeeds = pos.ReadSeeds(want)
		}
		for _, w := range []int{1, 3} {
			reg, tr := metrics.New(), trace.New(trace.PolicyAll, 0)
			reduces := 0
			var got []engine.Seeds
			res, n, err := batch.Stream(context.Background(), reduceCounter{e, &reduces},
				batcher(reads, 7, 64, 1, 40),
				func(b batch.Batch) error {
					if b.Base != len(got) || len(b.Seeds) != len(b.Reads) {
						t.Fatalf("%s workers=%d: batch at %d of %d reads with %d seeds after %d emitted",
							e.Name(), w, b.Base, len(b.Reads), len(b.Seeds), len(got))
					}
					got = append(got, b.Seeds...)
					return nil
				},
				batch.Options{Workers: w, Metrics: reg, Trace: tr, Engine: e.Name()})
			if err != nil || n != len(reads) || reduces != 1 {
				t.Fatalf("%s workers=%d: %d reads, %d reduces, err %v", e.Name(), w, n, reduces, err)
			}
			if !reflect.DeepEqual(e.SMEMs(res), wantSMEMs) {
				t.Errorf("%s workers=%d: streamed Result differs from one batch", e.Name(), w)
			}
			for i, s := range got {
				if !reflect.DeepEqual(s.Forward, wantSMEMs[i]) ||
					(wantSeeds != nil && !reflect.DeepEqual(s.Reverse, wantSeeds[i].Reverse)) {
					t.Fatalf("%s workers=%d: read %d emitted seeds differ from the reduced Result", e.Name(), w, i)
				}
			}
			if !bytes.Equal(jsonBytes(t, reg), jsonBytes(t, wantReg)) {
				t.Errorf("%s workers=%d: streamed metrics differ from one batch", e.Name(), w)
			}
			if !bytes.Equal(chromeBytes(t, tr), chromeBytes(t, wantTr)) {
				t.Errorf("%s workers=%d: streamed trace differs from one batch", e.Name(), w)
			}
		}
	}
}

// TestStreamStops checks the three ways a stream ends early: a producer
// error, a consumer error and cancellation. Each reduces exactly the
// emitted prefix once and returns the error that stopped it.
func TestStreamStops(t *testing.T) {
	ref, reads := testWorkload(t, 1<<15, 60)
	e, err := engine.New("casa", ref, testEngineOptions)
	if err != nil {
		t.Fatal(err)
	}
	errStop := errors.New("stop")
	run := func(next func() ([]dna.Sequence, error), emit func(batch.Batch) error, ctx context.Context) (emitted, n, reduces int, err error) {
		t.Helper()
		res, n, err := batch.Stream(ctx, reduceCounter{e, &reduces}, next, func(b batch.Batch) error {
			emitted += len(b.Reads)
			return emit(b)
		}, batch.Options{Workers: 2})
		if got := len(e.SMEMs(res)); got != n {
			t.Errorf("Result covers %d reads, want the %d seeded", got, n)
		}
		return emitted, n, reduces, err
	}
	ok := func(batch.Batch) error { return nil }

	produced := batcher(reads, 20)
	calls := 0
	failing := func() ([]dna.Sequence, error) {
		if calls++; calls == 3 {
			return nil, errStop
		}
		return produced()
	}
	if emitted, n, reduces, err := run(failing, ok, context.Background()); !errors.Is(err, errStop) || emitted != 40 || n != 40 || reduces != 1 {
		t.Errorf("producer error: emitted %d, seeded %d, %d reduces, err %v", emitted, n, reduces, err)
	}

	stopAfterOne := func(batch.Batch) error { return errStop }
	if emitted, n, reduces, err := run(batcher(reads, 20), stopAfterOne, context.Background()); !errors.Is(err, errStop) || emitted != 20 || n != 20 || reduces != 1 {
		t.Errorf("consumer error: emitted %d, seeded %d, %d reduces, err %v", emitted, n, reduces, err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancelAfterOne := func(batch.Batch) error { cancel(); return nil }
	if emitted, n, reduces, err := run(batcher(reads, 20), cancelAfterOne, ctx); !errors.Is(err, context.Canceled) || emitted != 20 || n != 20 || reduces != 1 {
		t.Errorf("cancellation: emitted %d, seeded %d, %d reduces, err %v", emitted, n, reduces, err)
	}
}

// readless is an engine whose activities hold no reads and no seeds,
// only their shard's read count, so what a Seeder retains between
// batches is the Seeder's own.
type readless struct{}

type readCount int

func (readCount) PublishMetrics(*metrics.Registry) {}

func (readCount) PublishModelMetrics(*metrics.Registry) {}

func (readless) Name() string         { return "readless" }
func (readless) Clone() engine.Engine { return readless{} }
func (readless) SeedTrace(reads []dna.Sequence, _ *trace.Buffer, _ int) engine.Activity {
	return readCount(len(reads))
}
func (readless) Reduce(acts []engine.Activity) engine.Result {
	n := 0
	for _, a := range acts {
		n += int(a.(readCount))
	}
	return readCount(n)
}
func (readless) SMEMs(res engine.Result) [][]smem.Match {
	return make([][]smem.Match, res.(readCount))
}
func (e readless) Seeds(acts []engine.Activity) []engine.Seeds {
	return make([]engine.Seeds, e.Reduce(acts).(readCount))
}

// TestSeederRetainsNoReads streams batches of 256 KiB of reads through a
// Seeder whose engine keeps none of them and checks that the heap it
// retains does not grow with the batch count: once a batch's seeds are
// handed over, nothing holds its reads.
func TestSeederRetainsNoReads(t *testing.T) {
	retained := func(batches int) (heap uint64, seeded int) {
		s := batch.NewSeeder(readless{}, batch.Options{Workers: 1})
		for range batches {
			reads := make([]dna.Sequence, 16)
			for i := range reads {
				reads[i] = make(dna.Sequence, 16<<10)
			}
			if _, err := s.Seed(context.Background(), reads); err != nil {
				t.Fatal(err)
			}
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		_, seeded = s.Reduce()
		return ms.HeapAlloc, seeded
	}
	few, n := retained(2)
	many, m := retained(66)
	if n != 2*16 || m != 66*16 {
		t.Fatalf("seeded %d and %d reads, want %d and %d", n, m, 2*16, 66*16)
	}
	// 64 more batches are 16 MiB of reads: a Seeder holding them retains
	// all of it.
	if many > few+1<<20 {
		t.Errorf("heap after 66 batches is %d KiB above the heap after 2", (many-few)>>10)
	}
}
